package analyzers

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// runFixture loads testdata/src/<rel> as a package, runs exactly one
// analyzer over it, and compares the surviving diagnostics against the
// `// want "substring"` expectations in the fixture source. Every
// diagnostic must match a want on its line, and every want must be
// claimed — so each fixture fails both when the analyzer goes silent
// and when it over-reports.
func runFixture(t *testing.T, a *Analyzer, rel string) {
	t.Helper()
	pkgs, err := NewLoader().Load(".", "./testdata/src/"+rel)
	if err != nil {
		t.Fatalf("load fixture %s: %v", rel, err)
	}
	diags := RunPackages([]*Analyzer{a}, pkgs)

	want := map[string][]string{} // "file:line" → expected substrings
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, "want ") {
						continue
					}
					sub, err := strconv.Unquote(strings.TrimSpace(strings.TrimPrefix(text, "want ")))
					if err != nil {
						t.Fatalf("unparsable want comment %q: %v", c.Text, err)
					}
					p := pkg.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", p.Filename, p.Line)
					want[key] = append(want[key], sub)
				}
			}
		}
	}

	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		matched := -1
		for i, sub := range want[key] {
			if strings.Contains(d.Message, sub) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		want[key] = slices.Delete(want[key], matched, matched+1)
		if len(want[key]) == 0 {
			delete(want, key)
		}
	}
	for key, subs := range want {
		for _, sub := range subs {
			t.Errorf("missing diagnostic at %s containing %q", key, sub)
		}
	}
}

func TestMapIterFixture(t *testing.T)    { runFixture(t, MapIter, "mapiter/core") }
func TestMapIterOutOfScope(t *testing.T) { runFixture(t, MapIter, "mapiter/other") }
func TestHotAllocFixture(t *testing.T)   { runFixture(t, HotAlloc, "hotalloc/hot") }
func TestUnsafeConfineFixture(t *testing.T) {
	runFixture(t, UnsafeConfine, "unsafeconfine/internal/core")
}
func TestLockBlockFixture(t *testing.T)    { runFixture(t, LockBlock, "lockblock/service") }
func TestStrictDecodeFixture(t *testing.T) { runFixture(t, StrictDecode, "strictdecode/api") }
func TestNoClockFixture(t *testing.T)      { runFixture(t, NoClock, "noclock/core") }

// TestRealTreeClean pins the acceptance criterion: the full suite over
// the repository reports nothing, and the annotation index actually
// carries the hotpath and blocking facts — proving hotalloc accepts
// the real Engine.Run / RunDelta / shard loop / dispatch-unit bodies
// because it checked them, not because it never saw them.
func TestRealTreeClean(t *testing.T) {
	pkgs, err := NewLoader().Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags := RunPackages(All(), pkgs)
	for _, d := range diags {
		t.Errorf("finding on clean tree: %s", d)
	}

	ix := buildIndex(pkgs)
	names := ix.HotpathNames()
	for _, fn := range []string{
		"(*sbgp/internal/core.Engine).Run",
		"(*sbgp/internal/core.Engine).RunAttack",
		"(*sbgp/internal/core.Engine).RunDelta",
		"(*sbgp/internal/core.Engine).SetModel",
		"(*sbgp/internal/sweep.Grid).evaluateRange",
		"(*sbgp/internal/sweep.Grid).evaluateShardPartial",
		"(*sbgp/internal/sweep.dispatch).unit",
		"(*sbgp/internal/sweep.shardAcc).add",
		"sbgp/internal/runner.ForEach",
	} {
		if !slices.Contains(names, fn) {
			t.Errorf("hotpath annotation missing from index: %s", fn)
		}
	}
	foundAdd := false
	for fn := range ix.blocking {
		if fn.FullName() == "(*sbgp/internal/sweep.CheckpointWriter).Add" {
			foundAdd = true
		}
	}
	if !foundAdd {
		t.Error("blocking annotation missing from index: (*sbgp/internal/sweep.CheckpointWriter).Add")
	}
}
