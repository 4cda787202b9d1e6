package uarch

import (
	"context"

	"bsisa/internal/emu"
	"bsisa/internal/isa"
)

// The declarations below keep old callers compiling while they move to Run.
// Each names its only remaining caller; delete it once that caller is gone.

// CanSweepKind reports whether the sweep engine serves programs of kind k.
// It does for every kind.
//
// Deprecated: route with RouteFor. Only svcbench's replica still calls it.
func CanSweepKind(isa.Kind) bool { return true }

// CanSegment reports whether a configuration may take the segment-parallel
// replay engine. That engine is gone, so it never may.
//
// Deprecated: route with RouteFor. Only svcbench's replica still calls it.
func CanSegment(Config) bool { return false }

// SegmentOptions was the segment-parallel replay's tuning; it no longer
// changes anything.
//
// Deprecated: use Run. Only svcbench's replica still names it.
type SegmentOptions struct {
	Workers  int
	Segments int
}

// ReplayTraceSegmentedContext is ReplayTraceContext; opt is ignored.
//
// Deprecated: use Run or ReplayTraceContext. Only svcbench's replica still
// calls it.
func ReplayTraceSegmentedContext(ctx context.Context, t *emu.Trace, cfg Config, _ SegmentOptions) (*Result, error) {
	return ReplayTraceContext(ctx, t, cfg)
}
