package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTextSymbol(t *testing.T) {
	for _, tc := range []struct {
		line, name string
		ok         bool
	}{
		{"  5c7960 T golts/wave.(*Simulation).Run", "golts/wave.(*Simulation).Run", true},
		{"  5c9920 T golts/internal/decomp.(*Memo[go.shape.interface {}]).Get", "golts/internal/decomp.(*Memo[go.shape.interface {}]).Get", true},
		{"  4010a0 t runtime.memmove", "runtime.memmove", true},
		{"  678620 R go:itab.*golts/wave.OptionError,error", "", false},
		{"         U _cgo_init", "", false},
		{"", "", false},
	} {
		name, ok := textSymbol(tc.line)
		if name != tc.name || ok != tc.ok {
			t.Errorf("textSymbol(%q) = %q, %v; want %q, %v", tc.line, name, ok, tc.name, tc.ok)
		}
	}
}

func TestSymbolKey(t *testing.T) {
	pkgs := []*pkg{
		{path: "golts/internal/decomp", rel: "internal/decomp", types: map[string]bool{"Memo": true}},
		{path: "golts/internal/sem", rel: "internal/sem", types: map[string]bool{"Elastic3D": true, "Scratch": true}},
		{path: "golts/wave", rel: "wave", types: map[string]bool{"Simulation": true}},
		{path: "golts/cmd/wavesim", rel: "cmd/wavesim"},
	}
	for _, tc := range []struct{ sym, key string }{
		{"golts/wave.(*Simulation).Run", "wave.Simulation.Run"},
		{"golts/wave.(*Simulation).Run.func1", "wave.Simulation.Run"},
		{"golts/wave.(*Simulation).Stats-fm", "wave.Simulation.Stats"},
		{"golts/wave.Simulation.Time", "wave.Simulation.Time"},
		{"golts/wave.New", "wave.New"},
		{"golts/wave.New.deferwrap1", "wave.New"},
		{"golts/wave.init.0", "wave.init"},
		{"golts/internal/sem.addKuBatchAVX512.abi0", "internal/sem.addKuBatchAVX512"},
		{"golts/internal/sem.(*Scratch).floats", "internal/sem.Scratch.floats"},
		{"golts/internal/decomp.(*Memo[go.shape.interface {}]).GetOwned", "internal/decomp.Memo.GetOwned"},
		{"golts/internal/decomp.(*Memo[go.shape.struct { A int; B func() }]).insert.func1", "internal/decomp.Memo.insert"},
		{"golts/internal/decomp.Memo[go.shape.string].Len", "internal/decomp.Memo.Len"},
		{"golts/internal/decomp.Build[go.shape.int]", "internal/decomp.Build"},
		{"golts/cmd/wavesim.main", "cmd/wavesim.main"},
		{"golts/internal/decomp..dict.Memo[interface {}]", ""},
		{"golts/internal/graph.New", ""},
		{"runtime.main", ""},
	} {
		if got := symbolKey(tc.sym, pkgs); got != tc.key {
			t.Errorf("symbolKey(%q) = %q, want %q", tc.sym, got, tc.key)
		}
	}
}

func TestParseAllowRejects(t *testing.T) {
	for _, src := range []string{
		"internal/sem.Prepare\n",
		"internal/sem.Prepare why\ninternal/sem.Prepare why again\n",
	} {
		if _, err := ParseAllow(strings.NewReader(src)); err == nil {
			t.Errorf("ParseAllow(%q) accepted", src)
		}
	}
	got, err := ParseAllow(strings.NewReader("# comment\n\ninternal/sem.Prepare called by the benchmark\n"))
	if err != nil || len(got) != 1 || got[0].Key != "internal/sem.Prepare" || got[0].Reason != "called by the benchmark" || got[0].Line != 3 {
		t.Fatalf("ParseAllow = %+v, %v", got, err)
	}
}

// TestGateFails builds the product with an exported function planted in
// an internal package (a build overlay; the tree is not touched) and
// requires the gate to fail naming it, and to fail naming each of two
// stale allow-list entries: one whose function does not exist and one
// whose function a binary links. The committed allow-list must hold
// otherwise: the planted function is the one unlinked function it does
// not name.
func TestGateFails(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	planted := filepath.Join(t.TempDir(), "planted.go")
	src := "package tune\n\n// Planted is linked by no binary.\nfunc Planted() int { return 1 }\n"
	if err := os.WriteFile(planted, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Analyse(root, map[string]string{filepath.Join(root, "internal", "tune", "zz_planted.go"): planted})
	if err != nil {
		t.Fatal(err)
	}

	allow, err := readAllow(root)
	if err != nil {
		t.Fatal(err)
	}
	fails := Gate(res, allow)
	if len(fails) != 1 || !strings.Contains(fails[0], "unlinked: internal/tune.Planted (internal/tune/zz_planted.go:4, 1 lines)") {
		t.Fatalf("with a planted function the gate reported %q", fails)
	}

	stale := append(allow,
		Allow{Key: "internal/tune.NoSuchFunction", Reason: "gone", Line: 1001},
		Allow{Key: "cmd/wavesim.main", Reason: "linked", Line: 1002},
	)
	fails = Gate(res, stale)
	want := []string{
		"unlinked: internal/tune.Planted",
		"stale allow-list entry (line 1001): internal/tune.NoSuchFunction: no such function",
		"stale allow-list entry (line 1002): cmd/wavesim.main: now linked",
	}
	if len(fails) != len(want) {
		t.Fatalf("gate reported %q, want %d lines", fails, len(want))
	}
	for i, w := range want {
		if !strings.Contains(fails[i], w) {
			t.Errorf("gate line %d = %q, want it to contain %q", i, fails[i], w)
		}
	}
}
