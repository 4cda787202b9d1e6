package check

import (
	"fmt"

	"bsisa/internal/emu"
	"bsisa/internal/uarch"
)

// SimMonitor wraps a timing simulation and asserts the machine's invariants
// after every committed block: the in-flight window never exceeds the
// configured 32-block / 512-operation capacity (paper §2's machine model).
// Feed its OnBlock to the emulator or a trace replay in place of the Sim's
// own handler, then call Finish as usual on the underlying Sim.
type SimMonitor struct {
	sim    *uarch.Sim
	cfg    uarch.Config
	events int64
}

// Monitor wraps sim. The Table-1 latency table is asserted once up front.
func Monitor(sim *uarch.Sim) (*SimMonitor, error) {
	if err := Latencies(); err != nil {
		return nil, err
	}
	return &SimMonitor{sim: sim, cfg: sim.ResolvedConfig()}, nil
}

// OnBlock forwards the event to the simulation and then checks the window
// occupancy invariants.
func (m *SimMonitor) OnBlock(ev *emu.BlockEvent) error {
	if err := m.sim.OnBlock(ev); err != nil {
		return err
	}
	m.events++
	blocks, ops := m.sim.Window()
	if blocks > m.cfg.WindowBlocks {
		return fmt.Errorf("check: event %d: %d blocks in flight, window holds %d",
			m.events, blocks, m.cfg.WindowBlocks)
	}
	if ops > m.cfg.WindowOps {
		return fmt.Errorf("check: event %d: %d ops in flight, window holds %d",
			m.events, ops, m.cfg.WindowOps)
	}
	if blocks < 0 || ops < 0 {
		return fmt.Errorf("check: event %d: negative window occupancy (%d blocks, %d ops)",
			m.events, blocks, ops)
	}
	return nil
}
