package svc

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// FuzzDecodeRequest feeds arbitrary request bodies through the service's
// trust boundary: DecodeRequest, then BuildConfig. Neither may panic, every
// failure must classify as a client error (ErrBadRequest), and every
// accepted request must yield a plan with one echoed icache size per
// configuration.
func FuzzDecodeRequest(f *testing.F) {
	seed := int64(42)
	for _, req := range []*SimRequest{
		{
			Program: ProgramSpec{Workload: "compress", Scale: 0.05, ISA: "bsa"},
			Sweep:   &SweepSpec{ICacheSizes: []int{0, 2048, 8192}},
		},
		{
			Program: ProgramSpec{Workload: "li", ISA: "conv"},
			Sweep:   &SweepSpec{HistoryBits: []int{4, 10}, ICacheSizes: []int{4096, 16384}},
		},
		{
			Program: ProgramSpec{Workload: "go", ISA: "bb"},
			Config:  &ConfigSpec{ICache: &CacheSpec{SizeBytes: 4096, Ways: 4}},
		},
		{
			Program: ProgramSpec{Source: "func main() { out(1); }", ISA: "fused"},
			Config:  &ConfigSpec{},
		},
		{
			Program:   ProgramSpec{Seed: &seed, ISA: "block-structured", Enlarge: &EnlargeSpec{MaxOps: 8}},
			Sweep:     &SweepSpec{ICacheSizes: []int{1024}},
			TimeoutMs: 500,
		},
	} {
		req.Version = SchemaVersion
		blob, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("decode failure is not a bad request: %v", err)
			}
			return
		}
		plan, err := BuildConfig(req)
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("config failure is not a bad request: %v", err)
			}
			return
		}
		if len(plan.Configs) == 0 || len(plan.ICacheBytes) != len(plan.Configs) {
			t.Fatalf("plan has %d configs and %d icache sizes", len(plan.Configs), len(plan.ICacheBytes))
		}
	})
}
