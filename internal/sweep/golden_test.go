package sweep

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/runner"
	"sbgp/internal/topogen"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenGrid is a fixed, fully deterministic grid: all three models,
// three deployments (baseline, all non-stubs, every even AS), sampled
// pairs, per-destination series.
func goldenGrid(g *asgraph.Graph, workers int, attack core.Attack) *Grid {
	M, D := runner.SamplePairs(asgraph.NonStubs(g), runner.AllASes(g.N()), 6, 8)
	evens := asgraph.NewSet(g.N())
	for v := 0; v < g.N(); v += 2 {
		evens.Add(asgraph.AS(v))
	}
	return &Grid{
		Deployments: []Deployment{
			{Name: "baseline"},
			{Name: "nonstubs", Dep: &core.Deployment{Full: asgraph.SetOf(g.N(), asgraph.NonStubs(g)...)}},
			{Name: "evens", Dep: &core.Deployment{Full: evens}},
		},
		Attackers:    M,
		Destinations: D,
		PerDest:      true,
		Attack:       attack,
		Workers:      workers,
	}
}

// checkEvaluation pins a prepared Evaluation of gr to want: a Run under
// an already-cancelled context returns (nil, context.Canceled) and
// leaves nothing behind in the reused dispatch, and two live Runs on
// the same Evaluation then both produce want.
func checkEvaluation(t *testing.T, g *asgraph.Graph, gr *Grid, want []byte, label string) {
	t.Helper()
	ev, err := gr.NewEvaluation(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := ev.Run(ctx); res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("%s: cancelled Run returned (%v, %v), want (nil, context.Canceled)", label, res, err)
	}
	for run := 1; run <= 2; run++ {
		res, err := ev.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := res.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Bytes(), want) {
			t.Errorf("%s: Evaluation.Run %d diverges from golden", label, run)
		}
	}
}

// TestGoldenSweepJSON pins the serialized sweep output of every shipped
// attack seeder to a golden file — the one-hop golden was captured from
// the pre-Attack-interface engine, so the default strategy is pinned
// bit-for-bit to the original hard-coded seeding. Any refactor of an
// attack's seeding or the grid's aggregation that perturbs results — at
// any worker count, and through the sharded path — fails this test.
func TestGoldenSweepJSON(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 500, Seed: 17})
	cases := []struct {
		name   string
		file   string
		attack core.Attack
	}{
		// nil (not OneHopHijack{}) matches the engine's default path and
		// keeps the pre-interface golden bytes authoritative.
		{"one-hop", "golden_onehop.json", nil},
		{"none", "golden_none.json", core.NoAttack{}},
		{"pad-3", "golden_pad3.json", core.PathPadding{Hops: 3}},
		{"origin-spoof", "golden_originspoof.json", core.OriginSpoof{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", tc.file)
			var serial bytes.Buffer
			if err := goldenGrid(g, 1, tc.attack).MustEvaluate(g).WriteJSON(&serial); err != nil {
				t.Fatal(err)
			}
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, serial.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to regenerate): %v", err)
			}
			if !bytes.Equal(serial.Bytes(), want) {
				t.Errorf("workers=1 sweep JSON diverges from golden %s:\n--- got ---\n%s", path, serial.String())
			}

			workers := runtime.NumCPU()
			if workers < 2 {
				workers = 4
			}
			var parallel bytes.Buffer
			if err := goldenGrid(g, workers, tc.attack).MustEvaluate(g).WriteJSON(&parallel); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(parallel.Bytes(), want) {
				t.Errorf("workers=%d sweep JSON diverges from golden %s", workers, path)
			}
			for _, w := range []int{1, 4} {
				checkEvaluation(t, g, goldenGrid(g, w, tc.attack), want, fmt.Sprintf("%s workers=%d", path, w))
			}

			// The sharded evaluator must land on the same bytes.
			res, err := goldenGrid(g, workers, tc.attack).EvaluateSharded(context.Background(), g, ShardOptions{ShardSize: 37})
			if err != nil {
				t.Fatal(err)
			}
			var sharded bytes.Buffer
			if err := res.WriteJSON(&sharded); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sharded.Bytes(), want) {
				t.Errorf("sharded sweep JSON diverges from golden %s", path)
			}

			// Every scheduling mode must land on the same bytes — the
			// defaults above already run chain-major (incremental is the
			// default and this axis nests baseline under the others), so
			// this pins the explicit override spellings and the legacy
			// order, flat and sharded, across worker counts and shard
			// sizes.
			workerCounts := []int{1, 4, workers}
			sizes := []int{1, 7, 64}
			if raceEnabled {
				workerCounts, sizes = []int{4}, []int{7}
			}
			for _, mode := range []IncrementalMode{IncrementalOn, IncrementalOff} {
				for _, w := range workerCounts {
					igr := goldenGrid(g, w, tc.attack)
					igr.Incremental = mode
					var flat bytes.Buffer
					if err := igr.MustEvaluate(g).WriteJSON(&flat); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(flat.Bytes(), want) {
						t.Errorf("incremental=%v sweep JSON (workers=%d) diverges from golden %s", mode, w, path)
					}
					for _, size := range sizes {
						ires, err := igr.EvaluateSharded(context.Background(), g, ShardOptions{ShardSize: size})
						if err != nil {
							t.Fatal(err)
						}
						var ish bytes.Buffer
						if err := ires.WriteJSON(&ish); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(ish.Bytes(), want) {
							t.Errorf("incremental=%v sharded sweep JSON (workers=%d, shard=%d) diverges from golden %s", mode, w, size, path)
						}
					}
				}
			}
		})
	}
}

// nestedGrid is a rollout-shaped grid: a chain of strictly nested
// deployments (growing non-stub prefixes plus their stub customers)
// and a second chain of simplex variants, the shape the incremental
// scheduler is built for.
func nestedGrid(g *asgraph.Graph, workers int, mode IncrementalMode) *Grid {
	M, D := runner.SamplePairs(asgraph.NonStubs(g), runner.AllASes(g.N()), 6, 8)
	nonStubs := asgraph.NonStubs(g)
	deployments := []Deployment{{Name: "baseline"}}
	for _, k := range []int{3, 9, 18, 30} {
		anchors := asgraph.SetOf(g.N(), nonStubs[:k]...)
		stubs := asgraph.StubCustomersOf(g, anchors)
		full := anchors.Clone()
		for _, v := range stubs {
			full.Add(v)
		}
		deployments = append(deployments,
			Deployment{Name: fmt.Sprintf("step%d", k), Dep: &core.Deployment{Full: full}},
			Deployment{Name: fmt.Sprintf("step%d+simplex", k), Dep: &core.Deployment{
				Full:    anchors.Clone(),
				Simplex: asgraph.SetOf(g.N(), stubs...),
			}},
		)
	}
	return &Grid{
		Deployments:  deployments,
		Attackers:    M,
		Destinations: D,
		PerDest:      true,
		Incremental:  mode,
		Workers:      workers,
	}
}

// TestGoldenNestedDeployments pins the nested-deployment (rollout-
// shaped) grid: the non-incremental evaluation is the golden authority,
// and the incremental scheduler — flat and sharded, across worker
// counts and shard sizes — must reproduce it byte for byte.
func TestGoldenNestedDeployments(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 500, Seed: 17})
	path := filepath.Join("testdata", "golden_nested.json")

	var serial bytes.Buffer
	if err := nestedGrid(g, 1, IncrementalOff).MustEvaluate(g).WriteJSON(&serial); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(path, serial.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(serial.Bytes(), want) {
		t.Errorf("non-incremental nested grid diverges from golden:\n--- got ---\n%s", serial.String())
	}

	for _, w := range []int{1, 4} {
		checkEvaluation(t, g, nestedGrid(g, w, IncrementalAuto), want, fmt.Sprintf("nested workers=%d", w))
	}

	gomax := runtime.GOMAXPROCS(0)
	workerCounts := []int{1, 4, gomax}
	sizes := []int{1, 7, 64, 100000}
	if raceEnabled {
		workerCounts, sizes = []int{4}, []int{7, 64}
	}
	for _, w := range workerCounts {
		// The default mode is incremental: the chain-major scheduler
		// must reproduce the (non-incremental) golden authority byte
		// for byte — flat, and sharded at every size, where shard
		// size 1 cuts every chain at every step and restarts a walk
		// in nearly every shard.
		igr := nestedGrid(g, w, IncrementalAuto)
		var flat bytes.Buffer
		if err := igr.MustEvaluate(g).WriteJSON(&flat); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(flat.Bytes(), want) {
			t.Errorf("incremental nested grid (workers=%d) diverges from golden", w)
		}
		for _, size := range sizes {
			res, err := nestedGrid(g, w, IncrementalAuto).EvaluateSharded(context.Background(), g, ShardOptions{ShardSize: size})
			if err != nil {
				t.Fatal(err)
			}
			var sharded bytes.Buffer
			if err := res.WriteJSON(&sharded); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sharded.Bytes(), want) {
				t.Errorf("incremental sharded nested grid (workers=%d, shard=%d) diverges from golden", w, size)
			}
		}
	}
}

// TestGoldenOriginSpoofReduction pins the Section 4.2 reduction at the
// golden-file level: origin-spoof is RPKI-filtered everywhere, so its
// golden must equal the no-attack golden byte for byte apart from the
// serialized attack name.
func TestGoldenOriginSpoofReduction(t *testing.T) {
	spoof, err := os.ReadFile(filepath.Join("testdata", "golden_originspoof.json"))
	if err != nil {
		t.Fatal(err)
	}
	none, err := os.ReadFile(filepath.Join("testdata", "golden_none.json"))
	if err != nil {
		t.Fatal(err)
	}
	renamed := bytes.Replace(spoof, []byte(`"attack": "origin-spoof"`), []byte(`"attack": "none"`), 1)
	if bytes.Equal(renamed, spoof) {
		t.Fatal("origin-spoof golden does not name its attack")
	}
	if !bytes.Equal(renamed, none) {
		t.Error("origin-spoof golden differs from the no-attack golden beyond the attack name")
	}
}
