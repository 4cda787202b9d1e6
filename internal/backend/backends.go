package backend

import (
	"bsisa/internal/core"
	"bsisa/internal/isa"
)

// def is the shared Backend implementation: the four built-in backends are
// pure data plus a shaping function.
type def struct {
	name    string
	aliases []string
	kind    isa.Kind
	desc    string
	shape   func(p *isa.Program, params core.Params) (*core.Stats, error)
	params  bool
	policy  Policy
}

func (d *def) Name() string        { return d.name }
func (d *def) Aliases() []string   { return append([]string(nil), d.aliases...) }
func (d *def) Kind() isa.Kind      { return d.kind }
func (d *def) Description() string { return d.desc }
func (d *def) AcceptsParams() bool { return d.params }
func (d *def) Policy() Policy      { return d.policy }

func (d *def) Shape(p *isa.Program, params core.Params) (*core.Stats, error) {
	if d.shape == nil {
		return nil, nil
	}
	return d.shape(p, params)
}

// The four built-in backends, in registration order. conv and bsa re-express
// the repo's original hardcoded binary: conv has no shaping pass and the
// speculative two-level front end; bsa's shaping pass is the paper's block
// enlarger and its front end uses the modified multi-successor predictor.
// conv/bsa results are byte-identical to the pre-registry code (pinned by the
// golden figures and the equivalence tests).
func init() {
	Register(&def{
		name:    "conventional",
		aliases: []string{"conv"},
		kind:    isa.Conventional,
		desc:    "baseline load/store ISA, speculative two-level prediction",
		policy:  Policy{Predictor: PredTwoLevel},
	})
	Register(&def{
		name:    "block-structured",
		aliases: []string{"bsa"},
		kind:    isa.BlockStructured,
		desc:    "paper's block-structured ISA: enlarged atomic blocks, multi-successor predictor",
		shape: func(p *isa.Program, params core.Params) (*core.Stats, error) {
			return core.Enlarge(p, params)
		},
		params: true,
		policy: Policy{Predictor: PredBSA, HeaderBytes: isa.HeaderBytes},
	})
	Register(&def{
		name:    "basicblocker",
		aliases: []string{"bb"},
		kind:    isa.BasicBlocker,
		desc:    "basic blocks behind a block-length header, non-speculative fetch (Thoma et al.)",
		shape: func(p *isa.Program, params core.Params) (*core.Stats, error) {
			return core.ReshapeLinear(p, params.MaxOps)
		},
		policy: Policy{
			Predictor:        PredNone,
			SerializeControl: true,
			HeaderBytes:      isa.HeaderBytes,
		},
	})
	Register(&def{
		name:    "fused",
		aliases: []string{"mof", "macro-op-fusion"},
		kind:    isa.MacroFused,
		desc:    "conventional ISA with decode-time macro-op fusion of dependent pairs (Celio et al.)",
		policy:  Policy{Predictor: PredTwoLevel, FuseMacroOps: true},
	})
}
