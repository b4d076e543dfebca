package core

import (
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/policy"
	"sbgp/internal/topogen"
)

// These tests pin the slab/arena contract of the engine core: after
// warm-up (growable queues at their high-water marks), the steady-state
// hot paths — from-scratch runs, incremental delta steps in both
// directions, and the partitioner — allocate nothing per run. The race
// detector's instrumentation allocates, so the assertions only run with
// it off; CI's dedicated zero-alloc job covers that configuration.

func zeroAllocFixture(t *testing.T) (*asgraph.Graph, *Deployment) {
	t.Helper()
	g, _ := topogen.MustGenerate(topogen.Params{N: 400, Seed: 1})
	full := asgraph.NewSet(g.N())
	for v := 0; v < g.N(); v += 3 {
		full.Add(asgraph.AS(v))
	}
	return g, &Deployment{Full: full}
}

func assertZeroAllocs(t *testing.T, what string, f func()) {
	t.Helper()
	if allocs := testing.AllocsPerRun(50, f); allocs != 0 {
		t.Errorf("%s: %.1f allocs per run in steady state, want 0", what, allocs)
	}
}

func TestEngineRunZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; covered by the non-race CI job")
	}
	g, dep := zeroAllocFixture(t)
	e := NewEngine(g, policy.Sec2nd)
	// Warm-up: visit every (d, m) pair the measured loop visits, so the
	// bucket queues and fixed list reach their high-water marks first.
	for i := 0; i < 24; i++ {
		e.Run(asgraph.AS(i%8+10), asgraph.AS(i%12+100), dep)
	}
	i := 0
	assertZeroAllocs(t, "Engine.Run", func() {
		e.Run(asgraph.AS(i%8+10), asgraph.AS(i%12+100), dep)
		i++
	})
}

// TestEngineSetModelZeroAllocs: switching models between runs costs
// no allocation — the schedules are compiled at construction.
func TestEngineSetModelZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; covered by the non-race CI job")
	}
	g, dep := zeroAllocFixture(t)
	e := NewEngine(g, policy.Sec2nd)
	for i := 0; i < 24; i++ {
		e.SetModel(policy.Models[i%policy.NumModels])
		e.Run(asgraph.AS(i%8+10), asgraph.AS(i%12+100), dep)
	}
	i := 0
	assertZeroAllocs(t, "Engine.SetModel+Run", func() {
		e.SetModel(policy.Models[i%policy.NumModels])
		e.Run(asgraph.AS(i%8+10), asgraph.AS(i%12+100), dep)
		i++
	})
}

func TestEngineRunDeltaZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; covered by the non-race CI job")
	}
	g, dep := zeroAllocFixture(t)
	// Ping-pong one non-stub in and out of the deployment: the forward
	// step exercises the addition path, the reverse step the removal
	// path with its secure reverse-reachability walk.
	x := asgraph.NonStubs(g)[0]
	if dep.Full.Has(x) {
		dep.Full.Remove(x)
	}
	grown := &Deployment{Full: dep.Full.Clone()}
	grown.Full.Add(x)
	delta := []asgraph.AS{x}
	d, m := asgraph.AS(10), asgraph.AS(100)

	e := NewEngine(g, policy.Sec2nd)
	prev := e.Run(d, m, dep)
	prev = e.RunDelta(prev, delta, nil, grown, nil)
	prev = e.RunDelta(prev, nil, delta, dep, nil)
	atGrown := false
	assertZeroAllocs(t, "Engine.RunDelta", func() {
		if atGrown {
			prev = e.RunDelta(prev, nil, delta, dep, nil)
		} else {
			prev = e.RunDelta(prev, delta, nil, grown, nil)
		}
		atGrown = !atGrown
	})
}

func TestPartitionerRunZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; covered by the non-race CI job")
	}
	g, _ := zeroAllocFixture(t)
	p := NewPartitioner(g, policy.Standard)
	for i := 0; i < 12; i++ {
		p.Run(asgraph.AS(i%8+10), asgraph.AS(i%12+100))
	}
	i := 0
	assertZeroAllocs(t, "Partitioner.Run", func() {
		p.Run(asgraph.AS(i%8+10), asgraph.AS(i%12+100))
		i++
	})
}
