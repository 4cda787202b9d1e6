package compile

import (
	"fmt"

	"bsisa/internal/ir"
	"bsisa/internal/isa"
	"bsisa/internal/lang"
)

// Options configures a compilation.
type Options struct {
	// Kind selects the target ISA.
	Kind isa.Kind
	// Optimize enables the middle-end optimization pipeline (on by
	// default via DefaultOptions).
	Optimize bool
	// MaxBlockOps caps block-structured atomic block size (0 means
	// DefaultMaxBlockOps). Ignored for the conventional ISA.
	MaxBlockOps int
	// IfConvert enables the predicated-execution pass (paper §6): small
	// conditional arms become straight-line conditional moves before
	// optimization.
	IfConvert bool
	// Inline enables inlining of small leaf functions (paper §6): call
	// boundaries stop block enlargement, so removing them lets enlarged
	// blocks grow.
	Inline bool
}

// DefaultOptions returns the standard optimizing configuration for a target.
func DefaultOptions(kind isa.Kind) Options {
	return Options{Kind: kind, Optimize: true}
}

// Compile runs the full front and back end over MiniC source text.
func Compile(src, name string, opts Options) (*isa.Program, error) {
	file, err := lang.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", name, err)
	}
	info, err := lang.Check(file)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", name, err)
	}
	mod, err := Lower(file, info, name)
	if err != nil {
		return nil, err
	}
	return CompileModule(mod, opts)
}

// CompileModule runs the middle and back end over an IR module. The module
// is optimized in place when opts.Optimize is set.
func CompileModule(mod *ir.Module, opts Options) (*isa.Program, error) {
	if opts.Inline {
		Inline(mod, 0)
		if err := mod.Validate(); err != nil {
			return nil, fmt.Errorf("compile: inlining produced invalid IR: %w", err)
		}
	}
	if opts.Optimize {
		Optimize(mod)
		if err := mod.Validate(); err != nil {
			return nil, fmt.Errorf("compile: optimizer produced invalid IR: %w", err)
		}
	}
	if opts.IfConvert {
		// Run after optimization so arms are in their final, compact form
		// (the arm-size profitability gate measures real instructions), then
		// clean up the flattened code.
		IfConvert(mod, 0)
		if err := mod.Validate(); err != nil {
			return nil, fmt.Errorf("compile: if-conversion produced invalid IR: %w", err)
		}
		if opts.Optimize {
			Optimize(mod)
		}
	}
	return Generate(mod, opts.Kind, opts.MaxBlockOps)
}
