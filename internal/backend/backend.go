// Package backend is the table of ISA backends, one entry per isa.Kind. A
// backend bundles the three per-ISA decisions the layers above the shared
// middle end look up by kind:
//
//   - compile-side block shaping: the pass that runs after code generation
//     (the paper's block enlarger for the block-structured ISA, the
//     linear-chain reshaper for BasicBlocker, nothing for the others),
//     together with the provenance trail internal/check audits;
//
//   - the uarch fetch policy: which branch predictor the front end uses,
//     whether fetch may speculate past unresolved control transfers, and
//     whether decode fuses adjacent dependent pairs;
//
//   - the service/CLI surface: the canonical name and aliases `-isa`,
//     `bsc -target` and svc.ProgramSpec.ISA accept.
//
// conv and bsa are the paper's pair. basicblocker (Thoma et al.) and fused
// (Celio et al.'s macro-op fusion) are the third and fourth backends.
package backend

import (
	"fmt"
	"slices"
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
// model consumes it, backends never see timing state. Block headers are not
// part of it: they reach the icache through the block sizes isa's layout
// derives from isa.Kind.HeaderBytes.
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
}

// Backend is one ISA target: everything outside the shared middle end that
// distinguishes how programs are shaped, fetched and audited.
type Backend struct {
	kind    isa.Kind
	tag     string
	aliases []string
	params  bool
	policy  Policy
	shape   func(p *isa.Program, params core.Params) (*core.Stats, error)
}

// backends holds every backend at its kind's index. conv and bsa re-express
// the repo's original hardcoded binary: conv has no shaping pass and the
// speculative two-level front end; bsa's shaping pass is the paper's block
// enlarger and its front end uses the modified multi-successor predictor.
var backends = [isa.NumKinds]Backend{
	isa.Conventional: {
		kind:    isa.Conventional,
		tag:     "conv",
		aliases: []string{"conv"},
		policy:  Policy{Predictor: PredTwoLevel},
	},
	isa.BlockStructured: {
		kind:    isa.BlockStructured,
		tag:     "bsa",
		aliases: []string{"bsa"},
		params:  true,
		policy:  Policy{Predictor: PredBSA},
		shape:   core.Enlarge,
	},
	isa.BasicBlocker: {
		kind:    isa.BasicBlocker,
		tag:     "bb",
		aliases: []string{"bb"},
		policy:  Policy{Predictor: PredNone, SerializeControl: true},
		shape: func(p *isa.Program, params core.Params) (*core.Stats, error) {
			return core.ReshapeLinear(p, params.MaxOps)
		},
	},
	isa.MacroFused: {
		kind:    isa.MacroFused,
		tag:     "fused",
		aliases: []string{"mof", "macro-op-fusion"},
		policy:  Policy{Predictor: PredTwoLevel, FuseMacroOps: true},
	},
}

// For returns the backend of a program kind. Every kind below isa.NumKinds
// has one, and isa.Decode rejects the rest.
func For(k isa.Kind) *Backend { return &backends[k] }

// Get resolves a canonical name or alias, case-sensitively. The error lists
// every backend with its aliases, so an unknown-ISA failure is
// self-describing.
func Get(name string) (*Backend, error) {
	for i := range backends {
		if b := &backends[i]; name == b.Name() || slices.Contains(b.aliases, name) {
			return b, nil
		}
	}
	return nil, fmt.Errorf("unknown ISA %q (registered backends: %s)", name, Describe())
}

// All returns every backend in kind order.
func All() []*Backend {
	all := make([]*Backend, len(backends))
	for i := range backends {
		all[i] = &backends[i]
	}
	return all
}

// Describe renders the table as `name (alias a, b)` entries in kind order,
// for error messages and CLI usage strings.
func Describe() string {
	parts := make([]string, len(backends))
	for i, b := range All() {
		parts[i] = b.Name()
		if len(b.aliases) > 0 {
			parts[i] += " (alias " + strings.Join(slices.Sorted(slices.Values(b.aliases)), ", ") + ")"
		}
	}
	return strings.Join(parts, ", ")
}

// Kind is the isa-level program kind the backend compiles to.
func (b *Backend) Kind() isa.Kind { return b.kind }

// Name is the canonical identifier (svc.ProgramSpec.ISA, bsc -target).
func (b *Backend) Name() string { return b.kind.String() }

// Tag is the compact display tag — conv, bsa, bb, fused — used in table
// columns and diagnostic stage names, where the canonical names are too
// wide. The conv/bsa spellings are load-bearing: check.Differential's
// stage names carry them.
func (b *Backend) Tag() string { return b.tag }

// Aliases returns a copy of the additional accepted spellings.
func (b *Backend) Aliases() []string { return slices.Clone(b.aliases) }

// AcceptsParams reports whether Shape honors core.Params (the service's
// enlarge spec is only legal for such backends).
func (b *Backend) AcceptsParams() bool { return b.params }

// Policy is the backend's uarch fetch contract.
func (b *Backend) Policy() Policy { return b.policy }

// Shape runs the backend's compile-side block shaping pass in place on a
// freshly generated program of this backend's kind, returning the pass
// statistics and provenance for auditing (nil stats when the backend has no
// shaping pass). A shaping pass lays out and validates the program before
// returning.
func (b *Backend) Shape(p *isa.Program, params core.Params) (*core.Stats, error) {
	if b.shape == nil {
		return nil, nil
	}
	return b.shape(p, params)
}
