package backend

import (
	"strings"
	"testing"

	"bsisa/internal/isa"
)

// TestRegistryContents pins the built-in registrations: four backends, in
// registration order, each resolvable by canonical name and by every alias,
// with Name matching the kind string (the service stores canonical names).
func TestRegistryContents(t *testing.T) {
	wantNames := []string{"conventional", "block-structured", "basicblocker", "fused"}
	var got []string
	for _, be := range All() {
		got = append(got, be.Name())
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
		if be.Name() != be.Kind().String() {
			t.Errorf("%q: Name() %q != Kind().String() %q", spelling.in, be.Name(), be.Kind())
		}
		if byKind, ok := ForKind(spelling.kind); !ok || byKind != be {
			t.Errorf("ForKind(%v) = %v, %v; want the %q backend", spelling.kind, byKind, ok, be.Name())
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
		{"bsa", Policy{Predictor: PredBSA, HeaderBytes: isa.HeaderBytes}},
		{"bb", Policy{Predictor: PredNone, SerializeControl: true, HeaderBytes: isa.HeaderBytes}},
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
		if got := PolicyFor(be.Kind()); got != tc.want {
			t.Errorf("PolicyFor(%v) = %+v, want %+v", be.Kind(), got, tc.want)
		}
		if be.Policy().HeaderBytes != be.Kind().HeaderBytes() {
			t.Errorf("%s: policy header bytes %d, kind pays %d",
				tc.name, be.Policy().HeaderBytes, be.Kind().HeaderBytes())
		}
	}
	// Unregistered kinds fall back to the conventional policy.
	if got := PolicyFor(isa.Kind(250)); got != (Policy{Predictor: PredTwoLevel}) {
		t.Errorf("PolicyFor(unregistered) = %+v", got)
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
		if Tag(be) != tc.tag {
			t.Errorf("%s: Tag %q, want %q", tc.name, Tag(be), tc.tag)
		}
	}
}

// TestRegisterPanics: duplicate names, duplicate aliases, and name/kind
// mismatches are programmer errors caught at init time. Runs against a
// scratch registry so the real registrations are untouched.
func TestRegisterPanics(t *testing.T) {
	saveOrder, saveByName, saveByKind := order, byName, byKind
	defer func() { order, byName, byKind = saveOrder, saveByName, saveByKind }()
	order, byName, byKind = nil, map[string]Backend{}, map[isa.Kind]Backend{}
	Register(&def{name: "conventional", aliases: []string{"conv"}, kind: isa.Conventional})
	Register(&def{name: "block-structured", aliases: []string{"bsa"}, kind: isa.BlockStructured})

	mustPanic := func(name string, b Backend) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(b)
	}
	mustPanic("duplicate name", &def{name: "conventional", kind: isa.Conventional})
	mustPanic("duplicate alias", &def{name: "basicblocker", aliases: []string{"bsa"}, kind: isa.BasicBlocker})
	mustPanic("name/kind mismatch", &def{name: "something-else", kind: isa.MacroFused})
}

// TestDescribe pins the registry listing format used in error messages and
// CLI usage strings.
func TestDescribe(t *testing.T) {
	got := Describe()
	want := "conventional (alias conv), block-structured (alias bsa), " +
		"basicblocker (alias bb), fused (alias macro-op-fusion, mof)"
	if got != want {
		t.Errorf("Describe() = %q, want %q", got, want)
	}
}
