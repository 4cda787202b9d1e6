package backend

import (
	"strings"
	"testing"

	"bsisa/internal/isa"
)

// TestRegistryContents pins the table: four backends in kind order, each at
// its kind's index (a keyed array literal zero-fills a kind without an
// entry, which this catches), each resolvable by canonical name and by every
// alias to the entry For returns, with no spelling naming two backends.
func TestRegistryContents(t *testing.T) {
	wantNames := []string{"conventional", "block-structured", "basicblocker", "fused"}
	var got []string
	for k, be := range All() {
		got = append(got, be.Name())
		if be.Kind() != isa.Kind(k) {
			t.Errorf("All()[%d].Kind() = %d (%v)", k, be.Kind(), be.Kind())
		}
		if For(isa.Kind(k)) != be {
			t.Errorf("For(%v) is not All()[%d]", isa.Kind(k), k)
		}
	}
	if strings.Join(got, ",") != strings.Join(wantNames, ",") {
		t.Fatalf("All() names = %v, want %v", got, wantNames)
	}
	for _, spelling := range []struct {
		in   string
		kind isa.Kind
	}{
		{"conventional", isa.Conventional},
		{"conv", isa.Conventional},
		{"block-structured", isa.BlockStructured},
		{"bsa", isa.BlockStructured},
		{"basicblocker", isa.BasicBlocker},
		{"bb", isa.BasicBlocker},
		{"fused", isa.MacroFused},
		{"mof", isa.MacroFused},
		{"macro-op-fusion", isa.MacroFused},
	} {
		be, err := Get(spelling.in)
		if err != nil {
			t.Fatalf("Get(%q): %v", spelling.in, err)
		}
		if be.Kind() != spelling.kind {
			t.Errorf("Get(%q).Kind() = %v, want %v", spelling.in, be.Kind(), spelling.kind)
		}
		if For(spelling.kind) != be {
			t.Errorf("For(%v) is not Get(%q)", spelling.kind, spelling.in)
		}
	}
	owner := map[string]isa.Kind{}
	for _, be := range All() {
		for _, s := range append([]string{be.Name()}, be.Aliases()...) {
			if k, dup := owner[s]; dup {
				t.Errorf("%q names both %v and %v", s, k, be.Kind())
			}
			owner[s] = be.Kind()
		}
	}
}

// TestGetUnknownListsRegistry requires the unknown-ISA error to be
// self-describing: every canonical name and alias appears in the message.
func TestGetUnknownListsRegistry(t *testing.T) {
	_, err := Get("vliw")
	if err == nil {
		t.Fatal("Get(vliw) succeeded")
	}
	msg := err.Error()
	for _, want := range []string{`unknown ISA "vliw"`, "registered backends",
		"conventional", "conv", "block-structured", "bsa", "basicblocker", "bb",
		"fused", "mof", "macro-op-fusion"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}
}

// TestPolicies pins each backend's fetch contract — the data the timing model
// keys its predictor selection, serialization, and fusion on.
func TestPolicies(t *testing.T) {
	cases := []struct {
		name string
		want Policy
	}{
		{"conv", Policy{Predictor: PredTwoLevel}},
		{"bsa", Policy{Predictor: PredBSA}},
		{"bb", Policy{Predictor: PredNone, SerializeControl: true}},
		{"mof", Policy{Predictor: PredTwoLevel, FuseMacroOps: true}},
	}
	for _, tc := range cases {
		be, err := Get(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if be.Policy() != tc.want {
			t.Errorf("%s policy %+v, want %+v", tc.name, be.Policy(), tc.want)
		}
	}
}

// TestShapeContract: only bsa accepts enlargement parameters; conv and fused
// have no shaping pass (nil stats); Tag returns the load-bearing short names.
func TestShapeContract(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params bool
		tag    string
	}{
		{"conv", false, "conv"},
		{"bsa", true, "bsa"},
		{"bb", false, "bb"},
		{"mof", false, "fused"},
	} {
		be, err := Get(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if be.AcceptsParams() != tc.params {
			t.Errorf("%s: AcceptsParams %v, want %v", tc.name, be.AcceptsParams(), tc.params)
		}
		if be.Tag() != tc.tag {
			t.Errorf("%s: Tag %q, want %q", tc.name, be.Tag(), tc.tag)
		}
	}
}

// TestDescribe pins the table listing format used in error messages and CLI
// usage strings.
func TestDescribe(t *testing.T) {
	got := Describe()
	want := "conventional (alias conv), block-structured (alias bsa), " +
		"basicblocker (alias bb), fused (alias macro-op-fusion, mof)"
	if got != want {
		t.Errorf("Describe() = %q, want %q", got, want)
	}
}
