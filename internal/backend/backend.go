// Package backend is the registry of ISA backends. A backend bundles the
// three per-ISA decisions that used to be scattered as `kind ==
// isa.BlockStructured` switches across the repo:
//
//   - compile-side block shaping: the pass that runs after code generation
//     (the paper's block enlarger for the block-structured ISA, the
//     linear-chain reshaper for BasicBlocker, nothing for the others),
//     together with the provenance trail internal/check audits;
//
//   - the uarch fetch policy: which branch predictor the front end uses,
//     whether fetch may speculate past unresolved control transfers, whether
//     decode fuses adjacent dependent pairs, and the per-block header bytes
//     the icache footprint pays;
//
//   - the service/CLI surface: the canonical name and aliases `-isa`,
//     `bsc -target` and svc.ProgramSpec.ISA accept.
//
// conv and bsa are the first two registrations and re-express the repo's
// original hardcoded binary exactly — the registry refactor changes no
// conv/bsa result. basicblocker (Thoma et al.) and fused (Celio et al.'s
// macro-op fusion) are the third and fourth backends; the next ones
// (decoupled front end, variable fetch rate) plug into the same interface.
package backend

import (
	"fmt"
	"sort"
	"strings"

	"bsisa/internal/core"
	"bsisa/internal/isa"
)

// PredictorSel selects the branch-predictor family a backend's front end
// uses; uarch.New maps it onto a concrete bpred constructor.
type PredictorSel uint8

const (
	// PredTwoLevel is the two-level adaptive predictor (conventional ISAs).
	PredTwoLevel PredictorSel = iota
	// PredBSA is the paper's modified multi-successor predictor.
	PredBSA
	// PredNone disables prediction: the front end never speculates
	// (BasicBlocker serializes on unresolved control instead).
	PredNone
)

func (p PredictorSel) String() string {
	switch p {
	case PredBSA:
		return "bsa"
	case PredNone:
		return "none"
	}
	return "two-level"
}

// Policy is a backend's uarch fetch contract. It is pure data: the timing
// model consumes it, backends never see timing state.
type Policy struct {
	// Predictor selects the branch-predictor family.
	Predictor PredictorSel
	// SerializeControl stalls fetch after a block whose control transfer
	// resolves at execute (BR, JR, RET) until the terminator completes —
	// the BasicBlocker contract: no speculation, branches resolve at block
	// boundaries.
	SerializeControl bool
	// FuseMacroOps enables the decode-time macro-op fusion pass: adjacent
	// dependent pairs matching Celio's patterns occupy one FU slot and one
	// window slot. Retired operation counts stay architectural.
	FuseMacroOps bool
	// HeaderBytes echoes the kind's per-block encoded header cost (isa's
	// EncodedSize is the layout authority; this lets audits and reports see
	// it without switching on the kind).
	HeaderBytes uint32
}

// Backend is one ISA target: everything outside the shared middle end that
// distinguishes how programs are shaped, fetched and audited.
type Backend interface {
	// Name is the canonical identifier (svc.ProgramSpec.ISA, bsc -target).
	// It equals Kind().String().
	Name() string
	// Aliases are additional accepted spellings.
	Aliases() []string
	// Kind is the isa-level program kind the backend compiles to.
	Kind() isa.Kind
	// Description is a one-line summary for docs and CLI listings.
	Description() string
	// Shape runs the backend's compile-side block shaping pass in place on
	// a freshly generated program of this backend's kind, returning the
	// pass statistics and provenance for auditing (nil stats when the
	// backend has no shaping pass). Shape lays out and validates the
	// program before returning.
	Shape(p *isa.Program, params core.Params) (*core.Stats, error)
	// AcceptsParams reports whether Shape honors core.Params (the service's
	// enlarge spec is only legal for such backends).
	AcceptsParams() bool
	// Policy is the backend's uarch fetch contract.
	Policy() Policy
}

// registry holds backends in registration order; name/alias lookup is
// case-sensitive, matching the service's historical behavior.
var (
	order  []Backend
	byName = map[string]Backend{}
	byKind = map[isa.Kind]Backend{}
)

// Register adds a backend. It panics on duplicate names, aliases or kinds —
// registration is an init-time, programmer-controlled act.
func Register(b Backend) {
	if b.Name() != b.Kind().String() {
		panic(fmt.Sprintf("backend: %q does not match its kind string %q", b.Name(), b.Kind()))
	}
	names := append([]string{b.Name()}, b.Aliases()...)
	for _, n := range names {
		if _, dup := byName[n]; dup {
			panic(fmt.Sprintf("backend: duplicate name/alias %q", n))
		}
	}
	if _, dup := byKind[b.Kind()]; dup {
		panic(fmt.Sprintf("backend: duplicate kind %v", b.Kind()))
	}
	for _, n := range names {
		byName[n] = b
	}
	byKind[b.Kind()] = b
	order = append(order, b)
}

// Get resolves a canonical name or alias. The error lists every registered
// backend with its aliases, so an unknown-ISA failure is self-describing.
func Get(name string) (Backend, error) {
	if b, ok := byName[name]; ok {
		return b, nil
	}
	return nil, fmt.Errorf("unknown ISA %q (registered backends: %s)", name, Describe())
}

// ForKind returns the backend registered for an isa.Kind, if any.
func ForKind(k isa.Kind) (Backend, bool) {
	b, ok := byKind[k]
	return b, ok
}

// PolicyFor returns the fetch policy for a program kind. Unregistered kinds
// get the conventional policy (speculative two-level prediction), which is
// the repo's historical default for anything not block-structured.
func PolicyFor(k isa.Kind) Policy {
	if b, ok := byKind[k]; ok {
		return b.Policy()
	}
	return Policy{Predictor: PredTwoLevel}
}

// Tag returns a backend's compact display tag — conv, bsa, bb, fused — used
// in table columns and diagnostic stage names, where the canonical names are
// too wide. The conv/bsa spellings predate the registry and are load-bearing
// in stage-name classifiers.
func Tag(b Backend) string {
	switch b.Kind() {
	case isa.Conventional:
		return "conv"
	case isa.BlockStructured:
		return "bsa"
	case isa.BasicBlocker:
		return "bb"
	}
	return b.Name()
}

// Names returns the canonical backend names in registration order.
func Names() []string {
	ns := make([]string, len(order))
	for i, b := range order {
		ns[i] = b.Name()
	}
	return ns
}

// All returns the registered backends in registration order.
func All() []Backend {
	return append([]Backend(nil), order...)
}

// Describe renders the registry as `name (alias a, b)` entries in
// registration order, for error messages and CLI usage strings.
func Describe() string {
	var parts []string
	for _, b := range order {
		s := b.Name()
		if al := b.Aliases(); len(al) > 0 {
			sorted := append([]string(nil), al...)
			sort.Strings(sorted)
			s += " (alias " + strings.Join(sorted, ", ") + ")"
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, ", ")
}
