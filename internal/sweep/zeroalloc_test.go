package sweep

import (
	"context"
	"fmt"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/policy"
	"sbgp/internal/runner"
	"sbgp/internal/topogen"
)

// rolloutDeployments builds a nested rollout chain of the given length:
// the baseline plus growing prefixes of the non-stub ASes, so the
// chain-major scheduler gets real RunDelta chains to cut and carry.
func rolloutDeployments(g *asgraph.Graph, steps int) []Deployment {
	nonStubs := asgraph.NonStubs(g)
	deps := []Deployment{{Name: "baseline"}}
	for i := 1; i < steps; i++ {
		k := i * 3
		deps = append(deps, Deployment{
			Name: fmt.Sprintf("step%d", k),
			Dep:  &core.Deployment{Full: asgraph.SetOf(g.N(), nonStubs[:k]...)},
		})
	}
	return deps
}

// forestDeployments builds a pairwise-incomparable axis — overlapping
// sliding windows over the non-stub ASes — that the planner links into
// a signed-delta forest rather than nested chains.
func forestDeployments(g *asgraph.Graph, steps int) []Deployment {
	nonStubs := asgraph.NonStubs(g)
	deps := []Deployment{{Name: "baseline"}}
	for i := 1; i < steps; i++ {
		lo := (i - 1) * 3
		deps = append(deps, Deployment{
			Name: fmt.Sprintf("win%d", lo),
			Dep:  &core.Deployment{Full: asgraph.SetOf(g.N(), nonStubs[lo:lo+9]...)},
		})
	}
	return deps
}

// allocCase is one grid the zero-alloc tests pin, on one worker.
type allocCase struct {
	name   string
	grid   *Grid
	budget int // per-evaluation allocation budget of the sharded pass
}

// allocCases covers both schedules: the identity order, the chain-major
// order with its mid-walk shard starts, the same order over all three
// models (so every worker's one engine switches models between walks),
// and a signed-delta forest.
//
// The sharded budgets allow per-evaluation overhead (axes, schedule,
// accumulator, dispatch, reduce); it does not scale with the shard
// count. The forest case pays a higher planning constant — both
// planners are built and priced, and every signed walk edge
// materializes its (added, removed) member lists once — all O(axis),
// never O(shards); its grid is sized so even one alloc per shard still
// blows the budget several times over.
func allocCases(g *asgraph.Graph) []allocCase {
	all := runner.AllASes(g.N())
	return []allocCase{
		{"identity", &Grid{
			Models:       []policy.Model{policy.Sec2nd},
			Attackers:    all[:40],
			Destinations: all[:40],
			Incremental:  IncrementalOff,
			Workers:      1,
		}, 100},
		{"chain-major", &Grid{
			Models:       []policy.Model{policy.Sec2nd},
			Deployments:  rolloutDeployments(g, 6),
			Attackers:    all[:16],
			Destinations: all[:16],
			Incremental:  IncrementalAuto,
			Workers:      1,
		}, 100},
		{"chain-major-models", &Grid{
			Deployments:  rolloutDeployments(g, 6),
			Attackers:    all[:12],
			Destinations: all[:12],
			Incremental:  IncrementalAuto,
			Workers:      1,
		}, 100},
		{"forest", &Grid{
			Models:       []policy.Model{policy.Sec2nd},
			Deployments:  forestDeployments(g, 6),
			Attackers:    all[:20],
			Destinations: all[:20],
			Incremental:  IncrementalAuto,
			Workers:      1,
		}, 170},
	}
}

// TestShardLoopZeroAllocs pins the arena contract of the sharded sweep:
// once the per-worker state is warm (engines built, accumulator and
// partial at their high-water marks), the steady-state shard loop —
// schedule walk, engine runs, accumulator fold, partial build, commit —
// allocates nothing per shard. The assertion is indirect but tight:
// one full EvaluateSharded pass over hundreds of shards must stay
// within a fixed per-evaluation allocation budget, so even a single
// allocation per shard would blow through it several times over.
//
// The race detector's instrumentation allocates, so the assertion only
// runs with it off; CI's dedicated zero-alloc job covers that
// configuration.
func TestShardLoopZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; covered by the non-race CI job")
	}
	g, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 9})
	for _, tc := range allocCases(g) {
		t.Run(tc.name, func(t *testing.T) {
			gr := tc.grid
			gr.Pool = NewEnginePool()
			// Shard size 3 cuts chains mid-walk, so the chain-major pass
			// restarts a walk on nearly every boundary.
			opts := ShardOptions{ShardSize: 3}
			nshards, err := gr.CellCount()
			if err != nil {
				t.Fatal(err)
			}
			nshards = NumShards(nshards, opts.ShardSize)
			if nshards < 4*tc.budget {
				t.Fatalf("grid too small to distinguish per-shard allocs (%d shards, budget %d)", nshards, tc.budget)
			}
			run := func() {
				if _, err := gr.EvaluateSharded(context.Background(), g, opts); err != nil {
					t.Fatal(err)
				}
				gr.Pool.Release()
			}
			run() // warm the pooled worker state
			allocs := testing.AllocsPerRun(3, run)
			t.Logf("%.0f allocs per %d-shard evaluation", allocs, nshards)
			if allocs > float64(tc.budget) {
				t.Errorf("%.0f allocs per %d-shard evaluation (budget %d): the shard loop is allocating per shard",
					allocs, nshards, tc.budget)
			}
		})
	}
}

// TestEvaluationZeroAllocs pins the prepared-evaluation contract
// exactly: after the first Run has warmed the Evaluation's private pool
// and Result, every Run — dispatch, engine runs, fold, reduce,
// including each cell's secure-AS count — allocates nothing, on every
// schedule.
func TestEvaluationZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; covered by the non-race CI job")
	}
	g, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 9})
	for _, tc := range allocCases(g) {
		t.Run(tc.name, func(t *testing.T) {
			ev, err := tc.grid.NewEvaluation(g)
			if err != nil {
				t.Fatal(err)
			}
			run := func() {
				if _, err := ev.Run(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the engines, scratch and Result
			if allocs := testing.AllocsPerRun(3, run); allocs != 0 {
				t.Errorf("Evaluation.Run allocated %.0f times per call in steady state, want 0", allocs)
			}
		})
	}
}
