package harness

import (
	"bytes"
	"fmt"
	"time"

	"bsisa/internal/emu"
	"bsisa/internal/isa"
	"bsisa/internal/stats"
)

// TraceStoreSpeed times the two ways a process can obtain a committed-block
// trace — a fresh functional recording (emu.Record) versus decoding the v3
// fixed-stride form a persistent store holds on disk (emu.DecodeTrace) —
// over every benchmark and both ISAs. It verifies along the way that the
// decoded trace is byte-for-byte interchangeable with a recording: the
// decoded trace and an independent fresh recording must re-encode to
// identical bytes, so replaying either walks identical flat slices. The
// decode : record ratio is what a bsimd restart against a warm -store
// directory buys per trace, and the Bytes column is the disk footprint the
// store pays for it.
func (h *Harness) TraceStoreSpeed() (*stats.Table, error) {
	t := &stats.Table{
		Title: "Trace store speed: fresh recording vs decoding the on-disk binary form",
		Columns: []string{"Benchmark", "ISA", "Events", "Bytes",
			"Record (ms)", "Decode (ms)", "Speedup"},
		Note: "Decoded traces verified to re-encode byte-identically to an independent fresh recording.",
	}
	var recordTotal, decodeTotal time.Duration
	var bytesTotal int64
	for _, b := range h.Benches {
		for _, side := range []struct {
			tag  string
			prog *isa.Program
		}{{"conv", b.Conv}, {"bsa", b.BSA}} {
			tr, traced, err := h.Trace(side.prog)
			if err != nil {
				return nil, err
			}
			if !traced {
				return nil, fmt.Errorf("harness: tracestore: %s/%s has no trace slot", b.Profile.Name, side.tag)
			}
			blob := tr.EncodeBytes(nil)
			h.Opts.progress("tracestore %-8s %s", b.Profile.Name, side.tag)

			start := time.Now()
			fresh, err := emu.Record(side.prog, emu.Config{})
			if err != nil {
				return nil, err
			}
			recordMs := time.Since(start)

			start = time.Now()
			dec, aux, err := emu.DecodeTrace(blob, side.prog)
			if err != nil {
				return nil, fmt.Errorf("harness: tracestore: %s/%s: decode: %w", b.Profile.Name, side.tag, err)
			}
			decodeMs := time.Since(start)

			if len(aux) != 0 {
				return nil, fmt.Errorf("harness: tracestore: %s/%s: unexpected aux section (%d bytes)",
					b.Profile.Name, side.tag, len(aux))
			}
			if !bytes.Equal(dec.EncodeBytes(nil), fresh.EncodeBytes(nil)) {
				return nil, fmt.Errorf("harness: tracestore: %s/%s: decoded trace diverges from a fresh recording",
					b.Profile.Name, side.tag)
			}

			recordTotal += recordMs
			decodeTotal += decodeMs
			bytesTotal += int64(len(blob))
			t.AddRow(b.Profile.Name, side.tag, tr.NumEvents(), len(blob),
				recordMs.Milliseconds(), decodeMs.Milliseconds(),
				fmt.Sprintf("%.2fx", float64(recordMs)/float64(decodeMs)))
		}
	}
	t.AddRow("TOTAL", "", "", bytesTotal,
		recordTotal.Milliseconds(), decodeTotal.Milliseconds(),
		fmt.Sprintf("%.2fx", float64(recordTotal)/float64(decodeTotal)))
	return t, nil
}
