package core

import (
	"math/rand"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/policy"
	"sbgp/internal/topogen"
)

// TestSetModelMatchesFreshEngine: one engine switched between models
// with SetModel, in an order that revisits every model, must compute
// exactly what a freshly built engine for the model computes — for a
// from-scratch run and for the RunDelta step that follows it — under
// both local-preference variants.
func TestSetModelMatchesFreshEngine(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 400, Seed: 5})
	n := g.N()
	order := []policy.Model{policy.Sec3rd, policy.Sec1st, policy.Sec2nd, policy.Sec2nd, policy.Sec3rd, policy.Sec1st}
	for _, lp := range []policy.LocalPref{policy.Standard, policy.LP2} {
		rng := rand.New(rand.NewSource(int64(lp.K) + 7))
		shared := NewEngineLP(g, policy.Sec2nd, lp)
		for i, model := range order {
			shared.SetModel(model)
			if shared.Model() != model {
				t.Fatalf("%v step %d: Model() = %v after SetModel(%v)", lp, i, shared.Model(), model)
			}
			d, m := asgraph.AS(rng.Intn(n)), asgraph.AS(rng.Intn(n))
			if m == d {
				m = asgraph.None
			}
			dep, _ := growDeployment(g, nil, n/10, rng)
			next, added := growDeployment(g, dep, 6, rng)
			fresh := NewEngineLP(g, model, lp)

			got := shared.RunAttack(d, m, dep, nil)
			gotLo, gotHi := shared.HappyBounds()
			want := fresh.RunAttack(d, m, dep, nil)
			wantLo, wantHi := fresh.HappyBounds()
			if !outcomesEqual(got, want) || gotLo != wantLo || gotHi != wantHi {
				t.Fatalf("%v step %d (%v): RunAttack after SetModel diverges from a fresh engine", lp, i, model)
			}
			got = shared.RunDelta(got, added, nil, next, nil)
			gotLo, gotHi = shared.HappyBounds()
			want = fresh.RunAttack(d, m, next, nil)
			wantLo, wantHi = fresh.HappyBounds()
			if !outcomesEqual(got, want) || gotLo != wantLo || gotHi != wantHi {
				t.Fatalf("%v step %d (%v): RunDelta after SetModel diverges from a fresh engine", lp, i, model)
			}
		}
	}
}

// TestRunDeltaRejectsOtherModel: an outcome computed under one model
// cannot seed a RunDelta under another — neither the engine's own
// outcome after a SetModel nor a clone from another model's engine.
func TestRunDeltaRejectsOtherModel(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 5})
	rng := rand.New(rand.NewSource(3))
	dep, _ := growDeployment(g, nil, 20, rng)
	next, added := growDeployment(g, dep, 4, rng)
	d, m := asgraph.AS(10), asgraph.AS(100)

	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: RunDelta accepted an outcome from another model", what)
			}
		}()
		f()
	}
	e := NewEngine(g, policy.Sec1st)
	prev := e.Run(d, m, dep)
	e.SetModel(policy.Sec2nd)
	mustPanic("own outcome after SetModel", func() { e.RunDelta(prev, added, nil, next, nil) })

	other := NewEngine(g, policy.Sec3rd).Run(d, m, dep).Clone()
	mustPanic("clone from another model", func() { NewEngine(g, policy.Sec2nd).RunDelta(other, added, nil, next, nil) })

	// The same clone seeds its own model's walk.
	got := NewEngine(g, policy.Sec3rd).RunDelta(other, added, nil, next, nil)
	if want := NewEngine(g, policy.Sec3rd).Run(d, m, next); !outcomesEqual(got, want) {
		t.Error("RunDelta from a same-model clone diverges from a from-scratch run")
	}
}
