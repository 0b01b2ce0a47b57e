package deepdive

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deepdive/internal/factor"
	"deepdive/internal/inc"
	"deepdive/internal/persist"
)

// TestOlderSnapshotVersionRefused pins the format-bump refusal: a data
// directory whose snapshot is a well-formed image of the previous format
// version (every section checksummed) does not reopen. OpenKB names the
// version it found and the one it reads, and leaves every file of the
// directory as it was.
func TestOlderSnapshotVersionRefused(t *testing.T) {
	const src = `
@relation R(x).
@variable Q(x).
Q(x) :- R(x) weight = 0.5.
`
	ctx := context.Background()
	dir := t.TempDir()
	kb, err := OpenKB(src, WithDataDir(dir), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := kb.Load("R", []Tuple{{"a"}, {"b"}}); err != nil {
		t.Fatal(err)
	}
	if err := kb.Init(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := kb.Materialize(ctx); err != nil {
		t.Fatal(err)
	}
	if err := kb.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if err := kb.Close(); err != nil {
		t.Fatal(err)
	}

	// Re-encode the snapshot with its meta section at the older version.
	const older = kbSnapVersion - 1
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.ddkb"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots %v, %v", snaps, err)
	}
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	secs, err := persist.DecodeFile(kbSnapMagic, data)
	if err != nil {
		t.Fatal(err)
	}
	e := persist.NewFileEnc(kbSnapMagic, len(data))
	for _, s := range secs {
		e.Begin(s.Kind)
		p := bytes.Clone(s.Payload)
		if s.Kind == secMeta {
			if p[0] != kbSnapVersion {
				t.Fatalf("meta section starts with version %d, want %d", p[0], kbSnapVersion)
			}
			p[0] = older
		}
		for _, c := range p {
			e.U8(c)
		}
		e.End()
	}
	if err := os.WriteFile(snaps[0], e.Finish(), 0o644); err != nil {
		t.Fatal(err)
	}

	files := func() map[string]string {
		out := map[string]string{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range entries {
			b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[ent.Name()] = string(b)
		}
		return out
	}
	before := files()
	back, err := OpenKB(src, WithDataDir(dir), WithSeed(3))
	if err == nil {
		back.CloseNow()
		t.Fatal("OpenKB reopened a snapshot of the older format version")
	}
	found, reads := fmt.Sprintf("version %d", older), fmt.Sprintf("version %d", kbSnapVersion)
	if !strings.Contains(err.Error(), found) || !strings.Contains(err.Error(), reads) {
		t.Fatalf("OpenKB refused with %q, want it to name the %s it found and the %s it reads", err, found, reads)
	}
	after := files()
	if len(after) != len(before) {
		t.Fatalf("refusing the directory changed its files: %d before, %d after", len(before), len(after))
	}
	for name, b := range before {
		if after[name] != b {
			t.Fatalf("refusing the directory changed %s", name)
		}
	}
}

// rewriteSnapshot re-encodes the one snapshot in dir with every section's
// payload passed through edit (checksums recomputed).
func rewriteSnapshot(t *testing.T, dir string, edit func(kind uint32, p []byte) []byte) {
	t.Helper()
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.ddkb"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots %v, %v", snaps, err)
	}
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	secs, err := persist.DecodeFile(kbSnapMagic, data)
	if err != nil {
		t.Fatal(err)
	}
	e := persist.NewFileEnc(kbSnapMagic, len(data))
	for _, s := range secs {
		e.Begin(s.Kind)
		for _, c := range edit(s.Kind, bytes.Clone(s.Payload)) {
			e.U8(c)
		}
		e.End()
	}
	if err := os.WriteFile(snaps[0], e.Finish(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRefusesChangeSetsPastTheGraph: the change set a snapshot
// carries — the KB's pending one — indexes the current graph, and OpenKB
// refuses an image in which it names a group or a variable past it, before
// an update would size a bitset by the id or score a group the graph does
// not have. It refuses, too, a weight
// vector longer or shorter than the weight table of the graph recovery
// derives from the grounding, rather than install it.
func TestRestoreRefusesChangeSetsPastTheGraph(t *testing.T) {
	const src = `
@relation R(x).
@variable Q(x).
Cand: Q(x) :- R(x).
F: Q(x) :- R(x) weight = 0.5.
`
	ctx := context.Background()
	changeSet := func(cs inc.ChangeSet) []byte {
		var b persist.Buf
		cs.AppendSnapshot(&b)
		return b.Bytes()
	}
	weights := func(n int) []byte {
		var b persist.Buf
		b.F64s(make([]float64, n))
		return b.Bytes()
	}
	for _, tc := range []struct {
		name string
		kind uint32
		edit func(g *factor.Graph, p []byte) []byte
		want string
	}{
		{"pending variable", secPending, func(g *factor.Graph, _ []byte) []byte {
			return changeSet(inc.ChangeSet{EvidenceChanged: []factor.VarID{factor.VarID(g.NumVars())}})
		}, "change set names"},
		{"one weight short", secWeights, func(g *factor.Graph, _ []byte) []byte {
			return weights(g.NumWeights() - 1)
		}, "weights"},
		{"one weight over", secWeights, func(g *factor.Graph, _ []byte) []byte {
			return weights(g.NumWeights() + 1)
		}, "weights"},
	} {
		dir := t.TempDir()
		kb, err := OpenKB(src, WithDataDir(dir), WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		if err := kb.Load("R", []Tuple{{"a"}, {"b"}}); err != nil {
			t.Fatal(err)
		}
		if err := kb.Init(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := kb.Materialize(ctx); err != nil {
			t.Fatal(err)
		}
		if err := kb.Checkpoint(ctx); err != nil {
			t.Fatal(err)
		}
		g := kb.curGraph
		if kb.engine.Drawn() || g.NumGroups() == 0 {
			t.Fatalf("the engine drew its store, or the graph has no groups (%d)", g.NumGroups())
		}
		if err := kb.Close(); err != nil {
			t.Fatal(err)
		}
		rewriteSnapshot(t, dir, func(kind uint32, p []byte) []byte {
			if kind != tc.kind {
				return p
			}
			return tc.edit(g, p)
		})
		back, err := OpenKB(src, WithDataDir(dir), WithSeed(3))
		if err == nil {
			back.CloseNow()
			t.Fatalf("%s: OpenKB restored the image over a graph of %d groups, %d variables, %d weights", tc.name, g.NumGroups(), g.NumVars(), g.NumWeights())
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: OpenKB refused with %q", tc.name, err)
		}
	}
}
