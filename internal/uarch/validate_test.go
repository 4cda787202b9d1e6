package uarch

import (
	"errors"
	"testing"

	"bsisa/internal/cache"
)

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config (paper defaults) should validate: %v", err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"negative issue width", Config{IssueWidth: -1}},
		{"negative window blocks", Config{WindowBlocks: -4}},
		{"negative fus", Config{NumFUs: -2}},
		{"fus beyond the byte scoreboard", Config{NumFUs: 256}},
		{"negative front end", Config{FrontEndDepth: -1}},
		{"negative l2 latency", Config{L2Latency: -10}},
		{"negative squash penalty", Config{FaultSquashPenalty: -3}},
		{"bad icache geometry", Config{ICache: cache.Config{SizeBytes: 3000, Ways: 4}}},
		{"bad dcache geometry", Config{DCache: cache.Config{SizeBytes: 1024, Ways: 3}}},
		{"bad trace cache sets", Config{TraceCache: TraceCacheConfig{Sets: 3, Ways: 4}}},
		{"bad multiblock banks", Config{MultiBlock: MultiBlockConfig{Blocks: 2, Banks: -1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil {
				t.Fatal("Validate accepted an invalid config")
			}
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("Validate = %v, want errors.Is(err, ErrBadConfig)", err)
			}
		})
	}
}
