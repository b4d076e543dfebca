package core

import (
	"math/rand"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/policy"
	"sbgp/internal/topogen"
)

// outcomesEqual compares every field of two outcomes.
func outcomesEqual(a, b *Outcome) bool {
	if a.Dst != b.Dst || a.Attacker != b.Attacker {
		return false
	}
	for v := range a.Class {
		if a.Class[v] != b.Class[v] || a.Len[v] != b.Len[v] ||
			a.Secure[v] != b.Secure[v] || a.Label[v] != b.Label[v] ||
			a.Next[v] != b.Next[v] {
			return false
		}
	}
	return true
}

// TestEpochResetMatchesFullClear drives one epoch-reset engine through
// a long sequence of runs — varying destination, attacker, and
// deployment so consecutive runs touch different subsets — and requires
// byte-identical outcomes after every run to a freshly built engine,
// whose construction wipes every entry: the strictest full-clear
// reference. Any state leaking across runs through the rollback would
// surface as a divergence.
func TestEpochResetMatchesFullClear(t *testing.T) {
	graphs := map[string]*asgraph.Graph{}
	g, _ := topogen.MustGenerate(topogen.Params{N: 600, Seed: 3})
	graphs["topogen-600"] = g
	for seed := int64(1); seed <= 4; seed++ {
		graphs["random"] = randomGraph(seed, 50)
		rng := rand.New(rand.NewSource(seed))
		for name, g := range graphs {
			n := g.N()
			deps := []*Deployment{nil}
			for k := 0; k < 2; k++ {
				full := asgraph.NewSet(n)
				simplex := asgraph.NewSet(n)
				for v := 0; v < n; v++ {
					switch rng.Intn(3 + k) {
					case 0:
						full.Add(asgraph.AS(v))
					case 1:
						if g.IsAnyStub(asgraph.AS(v)) {
							simplex.Add(asgraph.AS(v))
						}
					}
				}
				deps = append(deps, &Deployment{Full: full, Simplex: simplex})
			}
			for _, lp := range []policy.LocalPref{policy.Standard, policy.LP2} {
				for _, model := range policy.Models {
					epoch := NewEngineLP(g, model, lp)
					for run := 0; run < 12; run++ {
						d := asgraph.AS(rng.Intn(n))
						m := asgraph.AS(rng.Intn(n))
						if m == d {
							m = asgraph.None // normal conditions
						}
						dep := deps[rng.Intn(len(deps))]
						got := epoch.Run(d, m, dep)
						want := NewEngineLP(g, model, lp).Run(d, m, dep)
						if !outcomesEqual(got, want) {
							t.Fatalf("%s seed %d %v %v run %d (d=%d m=%d): epoch-reset outcome diverges from a fresh engine",
								name, seed, model, lp, run, d, m)
						}
					}
				}
			}
		}
	}
}

// TestEpochResetResolvedMode repeats the equivalence check in resolved-
// tiebreak mode, which exercises the label-of-lowest-next bookkeeping in
// the offer accumulators.
func TestEpochResetResolvedMode(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 400, Seed: 9})
	n := g.N()
	rng := rand.New(rand.NewSource(7))
	full := asgraph.NewSet(n)
	for v := 0; v < n; v += 2 {
		full.Add(asgraph.AS(v))
	}
	dep := &Deployment{Full: full}
	for _, model := range policy.Models {
		epoch := NewEngine(g, model, WithResolvedTiebreak())
		for run := 0; run < 20; run++ {
			d := asgraph.AS(rng.Intn(n))
			m := asgraph.AS(rng.Intn(n))
			if m == d {
				m = asgraph.None
			}
			got := epoch.Run(d, m, dep)
			want := NewEngine(g, model, WithResolvedTiebreak()).Run(d, m, dep)
			if !outcomesEqual(got, want) {
				t.Fatalf("%v run %d (d=%d m=%d): resolved-mode divergence", model, run, d, m)
			}
		}
	}
}
