// Package svc is the simulation service layer: a versioned JSON request
// schema over the repository's compile → enlarge → trace → simulate
// pipeline, an artifact cache that lets repeated requests over the same
// program skip compilation and trace recording, a bound on concurrent jobs
// with per-job deadlines and graceful drain, and an observability surface
// (Prometheus-text /metrics, pprof, structured per-job logs). cmd/bsimd is
// the daemon wrapping it; bsbench's -json output shares the same response
// envelope so offline benchmark artifacts and service answers have one
// schema.
package svc

import (
	"encoding/json"
	"fmt"
	"io"

	"bsisa/internal/stats"
	"bsisa/internal/uarch"
)

// SchemaVersion is the request/response schema this package speaks. Requests
// must carry it in their "version" field; responses echo it. Bump it only
// with a migration note in DESIGN.md §14.
const SchemaVersion = 2

// SimRequest is one simulation job. Exactly one program source (source,
// seed, or workload) and exactly one of Config (single timing run) or Sweep
// (multi-axis sensitivity sweep) must be set.
type SimRequest struct {
	// Version must equal SchemaVersion.
	Version int `json:"version"`
	// ID is an optional client-chosen tag echoed in the response and the
	// job log.
	ID string `json:"id,omitempty"`
	// Program selects and parameterizes the program to simulate.
	Program ProgramSpec `json:"program"`
	// EmuMaxOps bounds functional emulation while recording the trace. It
	// may only lower the server's cap of 2×10⁷ operations, which 0 selects.
	// Part of the trace cache key.
	EmuMaxOps int64 `json:"emu_max_ops,omitempty"`
	// Config runs a single timing simulation.
	Config *ConfigSpec `json:"config,omitempty"`
	// Sweep runs a sensitivity sweep over icache sizes and predictor tables
	// (Figure 6/7 style).
	Sweep *SweepSpec `json:"sweep,omitempty"`
	// TimeoutMs, when positive, caps the job's wall time; the job's context
	// is canceled at the deadline (subject to the server's own ceiling).
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// ProgramSpec identifies a program. Exactly one of Source, Seed, or Workload
// must be set.
type ProgramSpec struct {
	// Source is MiniC source text, compiled as-is.
	Source string `json:"source,omitempty"`
	// Seed generates a testgen program (the differential-fuzzing program
	// family) from the given seed.
	Seed *int64 `json:"seed,omitempty"`
	// Workload names one of the eight synthetic SPECint95 profiles
	// (compress, gcc, go, ...), generated at Scale.
	Workload string `json:"workload,omitempty"`
	// Scale multiplies the workload's dynamic size (default and maximum
	// 1.0; only valid with Workload).
	Scale float64 `json:"scale,omitempty"`
	// ISA names a registered backend: "conventional", "block-structured",
	// "basicblocker", or "fused" (aliases "conv", "bsa", "bb", "mof",
	// "macro-op-fusion" are accepted). Validation is registry-driven — an
	// unknown name's error lists every registered backend.
	ISA string `json:"isa"`
	// Enlarge overrides block-enlargement parameters (block-structured
	// only; nil means the paper's defaults).
	Enlarge *EnlargeSpec `json:"enlarge,omitempty"`
}

// EnlargeSpec mirrors core.Params' size knobs (zero = the paper's value).
type EnlargeSpec struct {
	MaxOps    int `json:"max_ops,omitempty"`
	MaxFaults int `json:"max_faults,omitempty"`
	MaxSuccs  int `json:"max_succs,omitempty"`
}

// CacheSpec mirrors cache.Config.
type CacheSpec struct {
	SizeBytes int `json:"size_bytes,omitempty"` // 0 = perfect
	Ways      int `json:"ways,omitempty"`       // default 4
	LineBytes int `json:"line_bytes,omitempty"` // default 64
}

// ConfigSpec mirrors the uarch.Config knobs the service exposes (zero values
// take the paper's configuration, exactly as in uarch.Config).
type ConfigSpec struct {
	IssueWidth         int            `json:"issue_width,omitempty"`
	WindowBlocks       int            `json:"window_blocks,omitempty"`
	WindowOps          int            `json:"window_ops,omitempty"`
	NumFUs             int            `json:"num_fus,omitempty"`
	FrontEndDepth      int            `json:"front_end_depth,omitempty"`
	L2Latency          int            `json:"l2_latency,omitempty"`
	FaultSquashPenalty int            `json:"fault_squash_penalty,omitempty"`
	ICache             *CacheSpec     `json:"icache,omitempty"`
	DCache             *CacheSpec     `json:"dcache,omitempty"`
	Predictor          *PredictorSpec `json:"predictor,omitempty"`
	PerfectBP          bool           `json:"perfect_bp,omitempty"`
}

// PredictorSpec mirrors bpred.Config (zero fields take the paper's predictor
// geometry). Table sizes must be powers of two and history must fit the
// 32-bit BHR, exactly as bpred.Config.Validate enforces.
type PredictorSpec struct {
	HistoryBits int `json:"history_bits,omitempty"`
	PHTEntries  int `json:"pht_entries,omitempty"`
	BTBSets     int `json:"btb_sets,omitempty"`
	BTBWays     int `json:"btb_ways,omitempty"`
	RASDepth    int `json:"ras_depth,omitempty"`
}

// SweepSpec requests one timing result per point of a multi-axis grid over a
// shared base configuration: the cross product of every set axis, in
// axis-major order (history outermost, then PHT entries, then BTB sets, then
// icache sizes innermost). With only ICacheSizes set this is the Figure 6/7
// question, exactly as before the predictor axes were added
// (schema-additive; older clients never see them). Size 0 is the
// perfect-icache reference point; an unset axis keeps the base
// configuration's value for that knob.
type SweepSpec struct {
	// ICacheSizes are the swept sizes in bytes, in the order results are
	// wanted.
	ICacheSizes []int `json:"icache_sizes,omitempty"`
	// HistoryBits sweeps the branch-history register length (0..32). Like
	// the other predictor axes it rejects a perfect-BP base, which would
	// make every point identical.
	HistoryBits []int `json:"history_bits,omitempty"`
	// PHTEntries sweeps the pattern-history-table size (powers of two).
	PHTEntries []int `json:"pht_entries,omitempty"`
	// BTBSets sweeps the branch-target-buffer set count (powers of two).
	BTBSets []int `json:"btb_sets,omitempty"`
	// Base carries every non-swept knob (nil = the paper's machine, 4-way
	// icache — the bsbench/bsim configuration).
	Base *ConfigSpec `json:"base,omitempty"`
}

// SimResponse is the service's response envelope, also emitted by
// `bsbench -json` for BENCH_<experiment>.json artifacts so both surfaces
// share one schema.
type SimResponse struct {
	// Version is the schema version of this envelope.
	Version int `json:"version"`
	// ID echoes the request's ID.
	ID string `json:"id,omitempty"`
	// Experiment labels the run: a bsbench experiment name, or "sim" /
	// "sweep" for service jobs.
	Experiment string `json:"experiment,omitempty"`
	// Scale is the workload scale factor, where one applies.
	Scale float64 `json:"scale,omitempty"`
	// WallMs is the job's wall time in milliseconds.
	WallMs int64 `json:"wall_ms"`
	// Error is set (and Results/Table unset) when the job failed.
	Error string `json:"error,omitempty"`
	// ErrorCode is the machine-readable class of Error: "bad_version",
	// "bad_program", "bad_geometry", "bad_sweep", "bad_request",
	// "unavailable", "timeout", "canceled", or "internal". Empty on success
	// (schema-additive; classify with it instead of parsing Error text).
	ErrorCode string `json:"error_code,omitempty"`
	// Engine reports which timing path uarch.Run took: "sweep" (the unified
	// multi-axis single-pass engine) or "simulate-many" (one replay per
	// config).
	Engine string `json:"engine,omitempty"`
	// ArtifactCache reports whether this job reused a cached compiled
	// program / recorded trace.
	ArtifactCache *ArtifactHits `json:"artifact_cache,omitempty"`
	// Results holds one typed result per requested configuration, in
	// request order.
	Results []SimResult `json:"results,omitempty"`
	// Table is the human-oriented rendering (bsbench tables; a cycles/IPC
	// table for service sweeps).
	Table *Table `json:"table,omitempty"`
}

// ArtifactHits reports per-job artifact cache outcomes. Predecode is only
// meaningful on jobs routed to a fused sweep engine (the only consumers of
// predecoded tables). Store marks a trace that came off the persistent store
// rather than being recorded by this process (schema-additive; always false
// when the server runs without a store); on a program-cache miss it also
// means the program was decoded from the store file, not compiled. Mmap
// further marks a store-served trace that replays zero-copy off read-only
// mmapped pages of a v3 file instead of a private decoded heap
// (schema-additive).
type ArtifactHits struct {
	Program   bool `json:"program"`
	Trace     bool `json:"trace"`
	Predecode bool `json:"predecode,omitempty"`
	Store     bool `json:"store,omitempty"`
	Mmap      bool `json:"mmap,omitempty"`
}

// Table is the JSON form of a rendered stats.Table.
type Table struct {
	Title   string     `json:"title,omitempty"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// TableOf converts a stats.Table to its JSON form.
func TableOf(t *stats.Table) *Table {
	return &Table{Title: t.Title, Columns: t.Columns, Rows: t.Rows}
}

// CacheStatsJSON mirrors cache.Stats.
type CacheStatsJSON struct {
	Accesses int64 `json:"accesses"`
	Misses   int64 `json:"misses"`
}

// SimResult is one configuration's timing result: every field of
// uarch.Result the CLI tools report, so a service answer can be diffed
// field-for-field against bsim/bsbench output.
type SimResult struct {
	ICacheBytes int `json:"icache_bytes"` // 0 = perfect
	// Predictor echoes the configuration's predictor point on sweeps that
	// set a predictor axis (nil elsewhere).
	Predictor *PredictorSpec `json:"predictor,omitempty"`

	Cycles int64   `json:"cycles"`
	Ops    int64   `json:"ops"`
	Blocks int64   `json:"blocks"`
	IPC    float64 `json:"ipc"`

	TrapMispredicts  int64 `json:"trap_mispredicts"`
	FaultMispredicts int64 `json:"fault_mispredicts"`
	Misfetches       int64 `json:"misfetches"`

	ICache CacheStatsJSON `json:"icache"`
	DCache CacheStatsJSON `json:"dcache"`

	FetchStallICache int64 `json:"fetch_stall_icache"`
	FetchStallWindow int64 `json:"fetch_stall_window"`
	RecoveryStall    int64 `json:"recovery_stall"`
	// FetchStallControl counts cycles fetch serialized on unresolved control
	// transfers (basicblocker backend; schema-additive, omitted when zero).
	FetchStallControl int64 `json:"fetch_stall_control,omitempty"`
	// FusedPairs counts macro-op pairs fused at decode (fused backend;
	// schema-additive, omitted when zero).
	FusedPairs int64 `json:"fused_pairs,omitempty"`
}

// ResultOf converts a uarch.Result for the configuration's icache size.
func ResultOf(icacheBytes int, r *uarch.Result) SimResult {
	return SimResult{
		ICacheBytes:       icacheBytes,
		Cycles:            r.Cycles,
		Ops:               r.Ops,
		Blocks:            r.Blocks,
		IPC:               r.IPC(),
		TrapMispredicts:   r.TrapMispredicts,
		FaultMispredicts:  r.FaultMispredicts,
		Misfetches:        r.Misfetches,
		ICache:            CacheStatsJSON{Accesses: r.ICache.Accesses, Misses: r.ICache.Misses},
		DCache:            CacheStatsJSON{Accesses: r.DCache.Accesses, Misses: r.DCache.Misses},
		FetchStallICache:  r.FetchStallICache,
		FetchStallWindow:  r.FetchStallWindow,
		RecoveryStall:     r.RecoveryStall,
		FetchStallControl: r.FetchStallControl,
		FusedPairs:        r.FusedPairs,
	}
}

// DecodeRequest reads one SimRequest from r with strict decoding: unknown
// fields are rejected (DisallowUnknownFields), trailing garbage is rejected,
// and the schema version must match. Failures wrap ErrBadRequest (and
// ErrBadVersion for version mismatches); a failure to read r also wraps the
// reader's error, so callers can tell an over-limit body from bad JSON.
func DecodeRequest(r io.Reader) (*SimRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req SimRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after request object", ErrBadRequest)
	}
	if req.Version != SchemaVersion {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, req.Version, SchemaVersion)
	}
	return &req, nil
}
