package emu_test

import (
	"context"
	"errors"
	"testing"

	"bsisa/internal/backend"
	"bsisa/internal/compile"
	"bsisa/internal/core"
	"bsisa/internal/emu"
)

// emptyLoop compiles, on the block-structured and basic-block backends, to
// one block without operations whose only successor is itself.
const emptyLoop = `func main() { while (1) { } return 0; }`

// countdownCtx reports context.Canceled from its (n+1)-th Err call on.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	c.n--
	if c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestEmptyLoopStops checks, on every backend, that a loop of blocks without
// operations still runs out of its budget, since every committed block
// charges at least one operation, and that RecordContext stops such a loop
// partway through once its context is done.
func TestEmptyLoopStops(t *testing.T) {
	for _, be := range backend.All() {
		prog, err := compile.Compile(emptyLoop, "loop", compile.DefaultOptions(be.Kind()))
		if err != nil {
			t.Fatalf("%s: %v", be.Name(), err)
		}
		if _, err := be.Shape(prog, core.Params{}); err != nil {
			t.Fatalf("%s: shape: %v", be.Name(), err)
		}
		// The countdown only keeps a regression from looping forever: the
		// budget trips at event 100,000, the countdown near 4 million.
		ctx := &countdownCtx{Context: context.Background(), n: 1000}
		if _, err := emu.RecordContext(ctx, prog, emu.Config{MaxOps: 100_000}); !errors.Is(err, emu.ErrBudget) {
			t.Errorf("%s: RecordContext = %v, want ErrBudget", be.Name(), err)
		}
		// Three context checks pass, so the recording is canceled at its
		// fourth, well inside the budget.
		ctx = &countdownCtx{Context: context.Background(), n: 3}
		if _, err := emu.RecordContext(ctx, prog, emu.Config{MaxOps: 1_000_000}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: canceled RecordContext = %v, want context.Canceled", be.Name(), err)
		}
	}
}
