// Benchmarks regenerating every table and figure of the paper's
// evaluation (the E1–E27 index in DESIGN.md), plus ablation benchmarks
// for the core algorithmic choices. Run:
//
//	go test -bench=. -benchmem
//
// Each benchmark iteration performs one full experiment at benchmark
// scale (an 800-AS workload with sampled pairs); cmd/experiments runs
// the same experiments at full scale.
package sbgp_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/bgpsim"
	"sbgp/internal/core"
	"sbgp/internal/deploy"
	"sbgp/internal/exp"
	"sbgp/internal/maxk"
	"sbgp/internal/policy"
	"sbgp/internal/rootcause"
	"sbgp/internal/runner"
	"sbgp/internal/sweep"
	"sbgp/internal/topogen"
)

var (
	workloadOnce sync.Once
	bw           *exp.Workload
	bwIXP        *exp.Workload
)

func benchWorkload(b *testing.B) *exp.Workload {
	b.Helper()
	workloadOnce.Do(func() {
		cfg := exp.Config{N: 800, Seed: 1, MaxM: 8, MaxD: 10, MaxPerDest: 30}
		bw = exp.NewWorkload(cfg)
		bwIXP = exp.NewIXPWorkload(cfg)
	})
	return bw
}

// BenchmarkBaselineHappiness — E1 / Section 4.2: H_V,V(∅) with origin
// authentication only.
func BenchmarkBaselineHappiness(b *testing.B) {
	w := benchWorkload(b)
	// One warm-up call builds the cached evaluation and its engines, so
	// the timed loop measures the zero-alloc steady state even at
	// -benchtime 1x (the committed-baseline configuration).
	w.Baseline(policy.Sec3rd, policy.Standard)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := w.Baseline(policy.Sec3rd, policy.Standard)
		if m.Lo <= 0 {
			b.Fatal("degenerate baseline")
		}
	}
}

// BenchmarkFig3Partitions — E2 / Figure 3.
func BenchmarkFig3Partitions(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.Partitions(policy.Standard)
	}
}

// BenchmarkFig4PartitionsByDestTier — E3 / Figure 4 (sec 3rd slice).
func BenchmarkFig4PartitionsByDestTier(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.PartitionsByDestTier(policy.Standard)
	}
}

// BenchmarkFig5PartitionsByDestTierSec2 — E4 / Figure 5. The computation
// shares E3's pass; the benchmark isolates the security 2nd recursion by
// running the partitioner directly.
func BenchmarkFig5PartitionsByDestTierSec2(b *testing.B) {
	w := benchWorkload(b)
	p := core.NewPartitioner(w.G, policy.Standard)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, m := w.D[i%len(w.D)], w.M[i%len(w.M)]
		if d == m {
			m = w.M[(i+1)%len(w.M)]
		}
		part := p.Run(d, m)
		_, _, _ = part.Counts(policy.Sec2nd)
	}
}

// BenchmarkFig6PartitionsByAttackerTier — E5 / Figure 6.
func BenchmarkFig6PartitionsByAttackerTier(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.PartitionsByAttackerTier(policy.Standard)
	}
}

// BenchmarkSourceTierPartitions — E6 / Section 4.7 ("figure omitted").
func BenchmarkSourceTierPartitions(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.PartitionsBySourceTier(policy.Standard)
	}
}

// BenchmarkFig7aRollout — E7 / Figure 7(a): the Tier 1+2 rollout with
// simplex error bars.
func BenchmarkFig7aRollout(b *testing.B) {
	w := benchWorkload(b)
	steps := deploy.Tier12Rollout(w.G, w.Tiers, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.Rollout(steps, w.D, policy.Standard)
	}
}

// BenchmarkFig7bSecureDestinations — E8 / Figure 7(b).
func BenchmarkFig7bSecureDestinations(b *testing.B) {
	w := benchWorkload(b)
	steps := deploy.Tier12Rollout(w.G, w.Tiers, false)
	last := steps[len(steps)-1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.SecureDestDeltas(last.Deployment, policy.Standard)
	}
}

// BenchmarkFig8ContentProviders — E9 / Figure 8.
func BenchmarkFig8ContentProviders(b *testing.B) {
	w := benchWorkload(b)
	steps := deploy.Tier12CPRollout(w.G, w.Tiers, w.Meta.CPs, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.Rollout(steps, w.Meta.CPs, policy.Standard)
	}
}

// BenchmarkFig9PerDestination — E10 / Figure 9.
func BenchmarkFig9PerDestination(b *testing.B) {
	w := benchWorkload(b)
	steps := deploy.Tier12Rollout(w.G, w.Tiers, false)
	dep := steps[len(steps)-1].Deployment
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.SecureDestDeltas(dep, policy.Standard)
	}
}

// BenchmarkFig10PerDestinationT2 — E11 / Figure 10.
func BenchmarkFig10PerDestinationT2(b *testing.B) {
	w := benchWorkload(b)
	steps := deploy.Tier2Rollout(w.G, w.Tiers, false)
	dep := steps[len(steps)-1].Deployment
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.SecureDestDeltas(dep, policy.Standard)
	}
}

// BenchmarkFig11Tier2Rollout — E12 / Figure 11.
func BenchmarkFig11Tier2Rollout(b *testing.B) {
	w := benchWorkload(b)
	steps := deploy.Tier2Rollout(w.G, w.Tiers, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.Rollout(steps, w.D, policy.Standard)
	}
}

// BenchmarkFig12NonStubs — E13 / Figure 12.
func BenchmarkFig12NonStubs(b *testing.B) {
	w := benchWorkload(b)
	dep := deploy.Build(w.G, w.Tiers, deploy.Spec{AllNonStubs: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.SecureDestDeltas(dep, policy.Standard)
	}
}

// BenchmarkEarlyAdopters — E14 / Section 5.3.1.
func BenchmarkEarlyAdopters(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.EarlyAdopters(policy.Standard)
	}
}

// BenchmarkFig13CPSecureRoutes — E15 / Figure 13.
func BenchmarkFig13CPSecureRoutes(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = w.CPFate(policy.Sec3rd, policy.Standard)
	}
}

// BenchmarkFig16RootCause — E16 / Figure 16.
func BenchmarkFig16RootCause(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.RootCause(policy.Sec3rd, policy.Standard)
		_ = w.RootCause(policy.Sec1st, policy.Standard)
	}
}

// BenchmarkTable3Phenomena — E17 / Table 3.
func BenchmarkTable3Phenomena(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.Phenomena(policy.Standard)
	}
}

// BenchmarkFig1Wedgie — E18 / Figure 1: the full wedgie sequence
// (intended state, flap, hysteresis) in the message-level simulator.
func BenchmarkFig1Wedgie(b *testing.B) {
	gb := asgraph.NewBuilder(6)
	gb.AddProviderCustomer(1, 0)
	gb.AddProviderCustomer(5, 0)
	gb.AddProviderCustomer(2, 1)
	gb.AddProviderCustomer(3, 2)
	gb.AddProviderCustomer(4, 3)
	gb.AddProviderCustomer(5, 4)
	g := gb.MustBuild()
	pl := []bgpsim.Placement{bgpsim.First, bgpsim.NotDeployed, bgpsim.Third, bgpsim.First, bgpsim.Third, bgpsim.First}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := bgpsim.New(g, pl)
		s.FailLink(2, 1)
		s.Announce(0)
		s.Run(0)
		s.RestoreLink(2, 1)
		s.Run(0)
		s.FailLink(5, 0)
		s.Run(0)
		s.RestoreLink(5, 0)
		s.Run(0)
	}
}

// BenchmarkFig2Downgrade — E19 / Figure 2: one downgrade scenario in the
// routing-outcome engine.
func BenchmarkFig2Downgrade(b *testing.B) {
	gb := asgraph.NewBuilder(6)
	gb.AddProviderCustomer(0, 1)
	gb.AddProviderCustomer(0, 4)
	gb.AddPeer(2, 0)
	gb.AddPeer(2, 1)
	gb.AddProviderCustomer(2, 3)
	gb.AddProviderCustomer(3, 5)
	g := gb.MustBuild()
	dep := &core.Deployment{Full: asgraph.SetOf(6, 0, 1, 4)}
	e := core.NewEngine(g, policy.Sec2nd)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		normal := e.RunNormal(0, dep).Clone()
		attack := e.Run(0, 5, dep)
		if core.CountDowngraded(normal, attack) != 1 {
			b.Fatal("downgrade disappeared")
		}
	}
}

// BenchmarkCollateralExamples — E20 / Figures 14, 15, 17: the root-cause
// accounting over the Figure 14 fixture.
func BenchmarkCollateralExamples(b *testing.B) {
	gb := asgraph.NewBuilder(10)
	gb.AddProviderCustomer(1, 0)
	gb.AddProviderCustomer(1, 2)
	gb.AddProviderCustomer(4, 0)
	gb.AddProviderCustomer(5, 4)
	gb.AddProviderCustomer(6, 5)
	gb.AddProviderCustomer(6, 2)
	gb.AddProviderCustomer(2, 3)
	gb.AddProviderCustomer(7, 3)
	gb.AddProviderCustomer(7, 8)
	gb.AddProviderCustomer(8, 9)
	g := gb.MustBuild()
	dep := &core.Deployment{Full: asgraph.SetOf(10, 0, 4, 5, 6, 2)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := rootcause.Evaluate(g, policy.Sec2nd, policy.Standard, dep,
			[]asgraph.AS{9}, []asgraph.AS{0}, 1)
		if a.CollateralDamage <= 0 {
			b.Fatal("collateral damage disappeared")
		}
	}
}

// BenchmarkTheorem21Convergence — E21: message-level convergence to the
// engine's stable state under a randomized schedule.
func BenchmarkTheorem21Convergence(b *testing.B) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 60, Seed: 11, TransitFrac: 0.35, NumCPs: 3, NumIXPs: 3})
	full := asgraph.NewSet(g.N())
	for v := 0; v < g.N(); v += 2 {
		full.Add(asgraph.AS(v))
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := bgpsim.New(g, bgpsim.UniformPlacements(g, policy.Sec2nd, full))
		s.Announce(3)
		s.Attack(40, 3)
		s.RunRandom(0, rng)
	}
}

// BenchmarkTheorem31NoDowngrade — E22: the no-downgrade check under
// security 1st across one workload destination.
func BenchmarkTheorem31NoDowngrade(b *testing.B) {
	w := benchWorkload(b)
	e := core.NewEngine(w.G, policy.Sec1st)
	steps := deploy.Tier12Rollout(w.G, w.Tiers, false)
	dep := steps[len(steps)-1].Deployment
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := w.D[i%len(w.D)]
		m := w.M[i%len(w.M)]
		if d == m {
			continue
		}
		normal := e.RunNormal(d, dep).Clone()
		attack := e.Run(d, m, dep)
		_ = core.CountDowngraded(normal, attack)
	}
}

// BenchmarkTheorem61Monotonicity — E23: nested-deployment happiness
// comparison under security 3rd.
func BenchmarkTheorem61Monotonicity(b *testing.B) {
	w := benchWorkload(b)
	e := core.NewEngine(w.G, policy.Sec3rd)
	steps := deploy.Tier12Rollout(w.G, w.Tiers, false)
	small := steps[0].Deployment
	big := steps[len(steps)-1].Deployment
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := w.D[i%len(w.D)]
		m := w.M[i%len(w.M)]
		if d == m {
			continue
		}
		s := e.Run(d, m, small)
		loS, _ := s.HappyBounds()
		t := e.Run(d, m, big)
		loT, _ := t.HappyBounds()
		if loT < loS {
			b.Fatal("monotonicity violated")
		}
	}
}

// BenchmarkMaxKSecurity — E24 / Theorem 5.1: exact Max-k-Security on the
// Appendix I gadget.
func BenchmarkMaxKSecurity(b *testing.B) {
	gd := maxk.BuildGadget(3, [][]int{{0, 1}, {1, 2}, {0, 2}}, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !gd.Satisfiable(policy.Sec3rd) {
			b.Fatal("gadget unsatisfiable")
		}
	}
}

// BenchmarkIXPAugmented — E25 / Appendix J: baseline + partitions on the
// IXP-augmented graph.
func BenchmarkIXPAugmented(b *testing.B) {
	benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bwIXP.Baseline(policy.Sec3rd, policy.Standard)
		_ = bwIXP.Partitions(policy.Standard)
	}
}

// BenchmarkLP2Partitions — E26 / Figures 24–25 (Appendix K).
func BenchmarkLP2Partitions(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.Partitions(policy.LP2)
	}
}

// BenchmarkTierClassification — E27 / Table 1.
func BenchmarkTierClassification(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = asgraph.Classify(w.G, w.Meta.CPs, nil)
	}
}

// --- Ablations: the design choices DESIGN.md calls out ---

// BenchmarkAblationEnginePerPair measures one routing-outcome
// computation (the unit of all experiments) on the benchmark graph.
func BenchmarkAblationEnginePerPair(b *testing.B) {
	w := benchWorkload(b)
	for _, model := range policy.Models {
		b.Run(model.String(), func(b *testing.B) {
			e := core.NewEngine(w.G, model)
			steps := deploy.Tier12Rollout(w.G, w.Tiers, false)
			dep := steps[len(steps)-1].Deployment
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, m := w.D[i%len(w.D)], w.M[i%len(w.M)]
				if d == m {
					m = w.M[(i+1)%len(w.M)]
				}
				_ = e.Run(d, m, dep)
			}
		})
	}
}

// BenchmarkAblationEngineVsMessageSim compares the staged engine with
// the message-level simulator on the same pair: the reason experiments
// use the engine.
func BenchmarkAblationEngineVsMessageSim(b *testing.B) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 120, Seed: 5, TransitFrac: 0.3, NumCPs: 3, NumIXPs: 2})
	full := asgraph.NewSet(g.N())
	for v := 0; v < g.N(); v += 2 {
		full.Add(asgraph.AS(v))
	}
	dep := &core.Deployment{Full: full}
	b.Run("engine", func(b *testing.B) {
		e := core.NewEngine(g, policy.Sec2nd, core.WithResolvedTiebreak())
		for i := 0; i < b.N; i++ {
			_ = e.Run(3, 50, dep)
		}
	})
	b.Run("message-sim", func(b *testing.B) {
		pl := bgpsim.UniformPlacements(g, policy.Sec2nd, full)
		for i := 0; i < b.N; i++ {
			s := bgpsim.New(g, pl)
			s.Announce(3)
			s.Attack(50, 3)
			s.Run(0)
		}
	})
}

// BenchmarkSweepGrid measures the headline (model × deployment) sweep
// grid — baseline plus the named rollout endpoints for all three
// models — evaluated in one parallel pass on the benchmark workload.
func BenchmarkSweepGrid(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := w.BaselineGrid(policy.Standard)
		if len(res.Cells) != 4*policy.NumModels {
			b.Fatalf("grid has %d cells", len(res.Cells))
		}
	}
}

// BenchmarkSweepSharded measures the sharded full-enumeration path on
// the headline grid: in memory, and with the per-shard fsync'd
// checkpoint (the durability cost of interruptible sweeps).
func BenchmarkSweepSharded(b *testing.B) {
	w := benchWorkload(b)
	b.Run("memory", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := w.BaselineGridSharded(context.Background(), policy.Standard, sweep.ShardOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Cells) != 4*policy.NumModels {
				b.Fatalf("grid has %d cells", len(res.Cells))
			}
		}
	})
	b.Run("checkpoint", func(b *testing.B) {
		dir := b.TempDir()
		for i := 0; i < b.N; i++ {
			_, err := w.BaselineGridSharded(context.Background(), policy.Standard, sweep.ShardOptions{
				ShardSize:  64,
				Checkpoint: filepath.Join(dir, fmt.Sprintf("bench_%d.ckpt", i)),
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRolloutSeries is the incremental-evaluation headline: a
// fine-grained nested rollout (one Tier 2 plus its stubs per step, 24
// steps) at the paper's default 4000-AS scale, evaluated as one sweep
// grid — from scratch versus with Incremental delta reuse. The two
// produce byte-identical results; the ratio is the delta path's win on
// rollout-shaped series.
func BenchmarkRolloutSeries(b *testing.B) {
	g, meta := topogen.MustGenerate(topogen.Params{N: 4000, Seed: 1})
	tiers := asgraph.Classify(g, meta.CPs, nil)
	deployments := []sweep.Deployment{{Name: "baseline"}}
	for k := 1; k <= 24; k++ {
		deployments = append(deployments, sweep.Deployment{
			Name: fmt.Sprintf("t2x%d", k),
			Dep:  deploy.Build(g, tiers, deploy.Spec{NumTier2: k, IncludeStubs: true}),
		})
	}
	M, D := runner.SamplePairs(asgraph.NonStubs(g), runner.AllASes(g.N()), 4, 4)
	for _, mode := range []struct {
		name        string
		incremental sweep.IncrementalMode
	}{
		{"from-scratch", sweep.IncrementalOff},
		{"incremental", sweep.IncrementalAuto},
	} {
		b.Run(mode.name, func(b *testing.B) {
			grid := &sweep.Grid{
				Deployments:  deployments,
				Attackers:    M,
				Destinations: D,
				Incremental:  mode.incremental,
				Workers:      1,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := grid.MustEvaluate(g)
				if len(res.Cells) != len(deployments)*policy.NumModels {
					b.Fatalf("grid has %d cells", len(res.Cells))
				}
			}
		})
	}
}

// BenchmarkCrossShardChain measures the sharded evaluator on the same
// fine-grained rollout grid as BenchmarkRolloutSeries, with shards
// small enough (64 cells against 25-step chains × 4 attackers) that
// every chain crosses many shard boundaries. The chain-major schedule
// keeps each chain's cells in consecutive shards, so a shard re-runs
// at most one split step from scratch and walks the rest with
// RunDelta; the from-scratch variant pays a full engine run for every
// cell of every shard.
func BenchmarkCrossShardChain(b *testing.B) {
	g, meta := topogen.MustGenerate(topogen.Params{N: 4000, Seed: 1})
	tiers := asgraph.Classify(g, meta.CPs, nil)
	deployments := []sweep.Deployment{{Name: "baseline"}}
	for k := 1; k <= 24; k++ {
		deployments = append(deployments, sweep.Deployment{
			Name: fmt.Sprintf("t2x%d", k),
			Dep:  deploy.Build(g, tiers, deploy.Spec{NumTier2: k, IncludeStubs: true}),
		})
	}
	M, D := runner.SamplePairs(asgraph.NonStubs(g), runner.AllASes(g.N()), 4, 4)
	for _, mode := range []struct {
		name        string
		incremental sweep.IncrementalMode
	}{
		{"from-scratch", sweep.IncrementalOff},
		{"chain-major", sweep.IncrementalAuto},
	} {
		b.Run(mode.name, func(b *testing.B) {
			grid := &sweep.Grid{
				Deployments:  deployments,
				Attackers:    M,
				Destinations: D,
				Incremental:  mode.incremental,
				Workers:      1,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := grid.EvaluateSharded(context.Background(), g, sweep.ShardOptions{ShardSize: 64})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Cells) != len(deployments)*policy.NumModels {
					b.Fatalf("grid has %d cells", len(res.Cells))
				}
			}
		})
	}
}

// BenchmarkIncomparableAxis measures the signed-delta forest planner's
// headline case: a deployment axis of pairwise-incomparable scenarios
// (sliding windows over the non-stubs, each sharing half its members
// with the next — the EarlyAdopters/Fig-8 shape) at the paper's default
// 4000-AS scale. The nested planner sees no chains here and re-runs
// every scenario from scratch; the forest links neighboring windows
// with remove-then-add deltas whose volume is far below a full run.
// Results are byte-identical across the two modes.
func BenchmarkIncomparableAxis(b *testing.B) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 4000, Seed: 1})
	nonStubs := asgraph.NonStubs(g)
	deployments := []sweep.Deployment{{Name: "baseline"}}
	for i := 0; i < 12; i++ {
		// Mid-list non-stubs: real transit ASes whose security status
		// still matters, but not the top hubs, whose every membership
		// change would dirty most of the routing state and mask the
		// scheduling effect being measured.
		lo := 300 + i*8
		win := asgraph.SetOf(g.N(), nonStubs[lo:lo+24]...)
		deployments = append(deployments, sweep.Deployment{
			Name: fmt.Sprintf("win%d", i),
			Dep:  &core.Deployment{Full: win},
		})
	}
	M, D := runner.SamplePairs(nonStubs, runner.AllASes(g.N()), 4, 4)
	for _, mode := range []struct {
		name        string
		incremental sweep.IncrementalMode
	}{
		{"from-scratch", sweep.IncrementalOff},
		{"forest", sweep.IncrementalAuto},
	} {
		b.Run(mode.name, func(b *testing.B) {
			grid := &sweep.Grid{
				Deployments:  deployments,
				Attackers:    M,
				Destinations: D,
				Incremental:  mode.incremental,
				Workers:      1,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := grid.MustEvaluate(g)
				if len(res.Cells) != len(deployments)*policy.NumModels {
					b.Fatalf("grid has %d cells", len(res.Cells))
				}
			}
		})
	}
}

// BenchmarkAblationParallelism compares the harness at 1 worker vs all
// cores on the benchmark workload.
func BenchmarkAblationParallelism(b *testing.B) {
	w := benchWorkload(b)
	for _, workers := range []int{1, 0} {
		name := "serial"
		if workers == 0 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = runner.EvalMetric(w.G, policy.Sec3rd, policy.Standard, nil, w.M, w.D, workers)
			}
		})
	}
}

// BenchmarkAblationSamplingError quantifies the pair-sampling
// substitution: metric at increasing attacker sample sizes.
func BenchmarkAblationSamplingError(b *testing.B) {
	w := benchWorkload(b)
	for _, mm := range []int{4, 8, 16} {
		M, _ := runner.SamplePairs(w.NonStubs, nil, mm, 0)
		b.Run(string(rune('0'+mm/4))+"x4-attackers", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = runner.EvalMetric(w.G, policy.Sec3rd, policy.Standard, nil, M, w.D, 0)
			}
		})
	}
}
