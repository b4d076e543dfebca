package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"sbgp"
)

// The traced run's layer probes. Each times one layer's public calls
// from outside, on the workload's fixed job (the paper-grid or
// rollout-fine job, or the warm job of the daemon streams), so a
// layer's cost reads as "this rung minus the rung below":
//
//	rung 1  core.engine_s         the job replayed as engine calls, one worker
//	rung 2  sweep.shard_loop_s    EvaluateJobShards per dispatch unit, summed
//	rung 3  sweep.evaluate_job_s  EvaluateJob with a checkpoint
//	rung 4  service.job_s         the job through the daemon's HTTP API
//	rung 5  dist.job_s            the job through the daemon in dist mode
//
// Rungs 1 and 2 run on one worker; rung 3 and up use the job's worker
// count, so rung 3's self time is its own overhead minus what parallel
// dispatch units save.

// loopRuns are the daemon jobs a daemon workload's traced phase already
// ran, so the matching probe reuses them instead of running its own.
type loopRuns struct {
	dist  bool
	runs  []*jobRun
	stats distCounters
	d     *daemon
}

// probeLayers reports every per-layer metric for the fixed job spec.
func probeLayers(c *config, rep *report, tr *tracer, spec *sbgp.JobSpec, refs *references, loop *loopRuns) error {
	ref, err := refs.get(spec)
	if err != nil {
		return err
	}
	g, meta, sim, err := probeSetup(c, rep, tr, spec)
	if err != nil {
		return err
	}
	deps, err := axis(g, meta, sim, spec, ref)
	if err != nil {
		return err
	}
	probeCore(c, rep, tr, g, sim, spec, deps)
	if err := probeSizeLadder(c, rep, tr, spec); err != nil {
		return err
	}
	rung1 := probeEngineReplay(rep, tr, g, sim, spec, deps)
	rung2, rung3, err := probeSweep(c, rep, tr, sim, ref)
	if err != nil {
		return err
	}
	// Daemon probes repeat the fixed job on a fresh daemon: the first
	// submission misses the topology cache, the rest hit it. Cheap jobs
	// repeat more often.
	repeats := int(3 / rung3)
	repeats = max(1, min(repeats, c.size(6, 2)))
	var svc, dst *loopRuns
	if loop != nil && !loop.dist {
		svc = loop
	} else if svc, err = probeDaemon(c, rep, tr, spec, refs, false, repeats); err != nil {
		return err
	}
	if loop != nil && loop.dist {
		dst = loop
	} else if dst, err = probeDaemon(c, rep, tr, spec, refs, true, repeats); err != nil {
		return err
	}
	rung4 := serviceMetrics(rep, svc.runs)
	rung5 := distMetrics(rep, dst)

	rep.set("ladder.sweep_shard_loop_self_s", rung2-rung1, "s")
	rep.set("ladder.sweep_evaluate_job_self_s", rung3-rung2, "s")
	rep.set("ladder.service_job_self_s", rung4-rung3, "s")
	rep.set("ladder.dist_job_self_s", rung5-rung4, "s")
	logf("ladder for %s: core %.4fs, shard loop %.4fs, evaluate_job %.4fs, service %.4fs, dist %.4fs",
		spec.Name, rung1, rung2, rung3, rung4, rung5)
	return nil
}

// probeSetup times topology generation and FromJobSpec + Simulate.
func probeSetup(c *config, rep *report, tr *tracer, spec *sbgp.JobSpec) (*sbgp.Graph, *sbgp.TopologyMeta, *sbgp.Simulation, error) {
	var gens, sims []float64
	var g *sbgp.Graph
	var meta *sbgp.TopologyMeta
	var sim *sbgp.Simulation
	for i := 0; i < c.size(5, 2); i++ {
		sp := tr.start("topogen.generate", 0, "fixed")
		t0 := time.Now()
		var err error
		g, meta, err = generate(spec)
		gens = append(gens, time.Since(t0).Seconds())
		tr.end(sp)
		if err != nil {
			return nil, nil, nil, err
		}
		sp = tr.start("sbgp.simulate", 0, "fixed")
		t0 = time.Now()
		sim, err = simulate(spec, g, meta)
		sims = append(sims, time.Since(t0).Seconds())
		tr.end(sp)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	rep.set("topogen.generate_s", median(gens), "s")
	rep.set("sbgp.simulate_s", median(sims), "s")
	return g, meta, sim, nil
}

// axis rebuilds the job's deployment axis, baseline first, and checks
// every deployment's size against the reference result's secure_ases.
func axis(g *sbgp.Graph, meta *sbgp.TopologyMeta, sim *sbgp.Simulation, spec *sbgp.JobSpec, ref []byte) ([]*sbgp.Deployment, error) {
	var res sbgp.Result
	if err := json.Unmarshal(ref, &res); err != nil {
		return nil, err
	}
	secure := map[string]int{}
	for _, cell := range res.Cells {
		secure[cell.Deployment] = cell.SecureASes
	}
	deps := []*sbgp.Deployment{nil}
	for _, jd := range spec.Canonical().Deployments {
		var ds sbgp.DeploymentSpec
		switch jd.Named {
		case "":
			ds = *jd.Spec
		case "t1t2":
			ds = sbgp.DeploymentSpec{NumTier1: 13, NumTier2: 100, IncludeStubs: true}
		case "t1t2cp":
			ds = sbgp.DeploymentSpec{NumTier1: 13, NumTier2: 100, CPs: meta.CPs, IncludeStubs: true}
		case "t2":
			ds = sbgp.DeploymentSpec{NumTier2: 100, IncludeStubs: true}
		case "nonstubs":
			ds = sbgp.DeploymentSpec{AllNonStubs: true}
		default:
			return nil, fmt.Errorf("unknown named deployment %q", jd.Named)
		}
		dep := sbgp.BuildDeployment(g, sim.Tiers(), ds)
		if got, want := dep.SecureCount(), secure[jd.Name]; got != want {
			return nil, fmt.Errorf("replayed deployment %q secures %d ASes, the reference %d", jd.Name, got, want)
		}
		deps = append(deps, dep)
	}
	return deps, nil
}

// engines returns one engine per model of the job.
func engines(g *sbgp.Graph, spec *sbgp.JobSpec) []*sbgp.Engine {
	var es []*sbgp.Engine
	for _, m := range spec.Canonical().Models {
		es = append(es, sbgp.NewEngineLP(g, sbgp.Model(m-1), sbgp.LocalPref{K: spec.LPK}))
	}
	return es
}

// deltas precomputes the signed delta of every axis step.
func deltas(deps []*sbgp.Deployment) (added, removed [][]sbgp.AS) {
	added = make([][]sbgp.AS, len(deps))
	removed = make([][]sbgp.AS, len(deps))
	for i := 1; i < len(deps); i++ {
		added[i], removed[i] = sbgp.DeploymentDelta(deps[i-1], deps[i])
	}
	return added, removed
}

// probeCore times Engine.RunAttack from scratch on a fixed sample of
// the job's cells, and Engine.RunDelta along the deployment axis on the
// same (model, destination, attacker) groups; delta_over_scratch is the
// median ratio of the two on the same cell and step.
func probeCore(c *config, rep *report, tr *tracer, g *sbgp.Graph, sim *sbgp.Simulation, spec *sbgp.JobSpec, deps []*sbgp.Deployment) {
	walk, scratch := engines(g, spec), engines(g, spec)
	ms, ds := sim.JobPairs()
	added, removed := deltas(deps)
	att := sim.Attack()
	rng := rand.New(rand.NewSource(c.seed + 2))
	var runs, steps, ratios []float64
	root := tr.start("core.sample", 0, "fixed")
	for k := 0; k < c.size(16, 4); {
		mi := rng.Intn(len(walk))
		d, m := ds[rng.Intn(len(ds))], ms[rng.Intn(len(ms))]
		if d == m {
			continue
		}
		k++
		var prev *sbgp.Outcome
		for i, dep := range deps {
			t0 := time.Now()
			scratch[mi].RunAttack(d, m, dep, att)
			s := time.Since(t0)
			runs = append(runs, micros(s))
			if i == 0 {
				prev = walk[mi].RunAttack(d, m, dep, att)
				continue
			}
			t0 = time.Now()
			prev = walk[mi].RunDelta(prev, added[i], removed[i], dep, att)
			dd := time.Since(t0)
			steps = append(steps, micros(dd))
			ratios = append(ratios, float64(dd)/float64(s))
		}
	}
	tr.end(root)
	rep.set("core.run_us_p50", median(runs), "us")
	rep.set("core.run_us_p90", quantile(runs, 0.9), "us")
	rep.set("core.rundelta_us_p50", median(steps), "us")
	rep.set("core.delta_over_scratch", median(ratios), "ratio")
}

// probeSizeLadder times RunAttack on generated 4k, 16k and 64k
// topologies with the same cell sample size, t1t2 deployed, and the
// generation time beside each.
func probeSizeLadder(c *config, rep *report, tr *tracer, spec *sbgp.JobSpec) error {
	for _, rung := range []struct {
		name string
		n    int
	}{{"n4k", c.size(4000, 400)}, {"n16k", c.size(16000, 800)}, {"n64k", c.size(64000, 1600)}} {
		sp := tr.start("topogen.generate", 0, rung.name)
		t0 := time.Now()
		g, meta, err := sbgp.GenerateTopology(sbgp.TopologyParams{N: rung.n, Seed: spec.Topology.Seed, SeedSet: true})
		gen := time.Since(t0)
		tr.end(sp)
		if err != nil {
			return err
		}
		dep := sbgp.BuildDeployment(g, sbgp.ClassifyTiers(g, meta.CPs),
			sbgp.DeploymentSpec{NumTier1: 13, NumTier2: 100, IncludeStubs: true})
		ms, ds := sbgp.SamplePairs(sbgp.NonStubs(g), sbgp.AllASes(g.N()), 4, 4)
		es := [sbgp.NumModels]*sbgp.Engine{}
		for m := range es {
			es[m] = sbgp.NewEngineLP(g, sbgp.Model(m), sbgp.LocalPref{})
		}
		var runs []float64
		sp = tr.start("core.size_ladder", 0, rung.name)
		for i, d := range ds {
			for j, m := range ms {
				if m == d {
					continue
				}
				e := es[(i*len(ms)+j)%len(es)]
				t0 := time.Now()
				e.RunAttack(d, m, dep, nil)
				runs = append(runs, micros(time.Since(t0)))
			}
		}
		tr.end(sp)
		rep.set("core.run_us_p50."+rung.name, median(runs), "us")
		rep.set("topogen.generate_s."+rung.name, gen.Seconds(), "s")
	}
	return nil
}

// probeEngineReplay is rung 1: the fixed job replayed as engine calls
// on one worker — every (model, destination, attacker) group walks the
// deployment axis in declaration order, RunDelta step by step (or
// RunAttack per cell with incremental off), reading the happiness
// bounds after each run as the grid does. The planner may link the
// axis differently; that difference lands in the shard loop's self
// time.
func probeEngineReplay(rep *report, tr *tracer, g *sbgp.Graph, sim *sbgp.Simulation, spec *sbgp.JobSpec, deps []*sbgp.Deployment) float64 {
	es := engines(g, spec)
	ms, ds := sim.JobPairs()
	added, removed := deltas(deps)
	att := sim.Attack()
	scratchOnly := spec.Canonical().Incremental == "off"
	sp := tr.start("ladder.core", 0, "fixed")
	t0 := time.Now()
	for _, e := range es {
		for _, d := range ds {
			for _, m := range ms {
				if m == d {
					continue
				}
				var prev *sbgp.Outcome
				for i, dep := range deps {
					if i == 0 || scratchOnly {
						prev = e.RunAttack(d, m, dep, att)
					} else {
						prev = e.RunDelta(prev, added[i], removed[i], dep, att)
					}
					e.HappyBounds()
				}
			}
		}
	}
	rung1 := time.Since(t0).Seconds()
	tr.end(sp)
	rep.set("core.engine_s", rung1, "s")
	return rung1
}

// probeSweep times the sweep layer's public calls on the fixed job:
// JobShardPlan, EvaluateJobShards per dispatch unit (rung 2 is their
// sum), CheckpointWriter.Add per partial, MergeJobPartials, and
// EvaluateJob with a checkpoint (rung 3), reading its ShardStats.
func probeSweep(c *config, rep *report, tr *tracer, sim *sbgp.Simulation, ref []byte) (rung2, rung3 float64, err error) {
	var plans []float64
	var layout *sbgp.ShardLayout
	var units []sbgp.ShardRange
	for i := 0; i < 5; i++ {
		sp := tr.start("sweep.plan", 0, "fixed")
		t0 := time.Now()
		layout, units, err = sim.JobShardPlan()
		plans = append(plans, millis(time.Since(t0)))
		tr.end(sp)
		if err != nil {
			return 0, 0, err
		}
	}
	rep.set("sweep.plan_ms", median(plans), "ms")

	pool := sbgp.NewEnginePool()
	var partials []*sbgp.ShardPartial
	var unitTimes []float64
	root := tr.start("ladder.shard_loop", 0, "fixed")
	for _, u := range units {
		sp := tr.start("sweep.unit", root, "fixed")
		t0 := time.Now()
		err := sim.EvaluateJobShards(layout, u, sbgp.ShardRangeOptions{
			Pool: pool,
			Sink: func(p *sbgp.ShardPartial) error {
				partials = append(partials, p)
				return nil
			},
		})
		unitTimes = append(unitTimes, time.Since(t0).Seconds())
		tr.end(sp)
		pool.Release()
		if err != nil {
			return 0, 0, err
		}
	}
	tr.end(root)
	rung2 = sum(unitTimes)
	rep.set("sweep.unit_s_p50", median(unitTimes), "s")
	rep.set("sweep.unit_s_max", maxOf(unitTimes), "s")
	rep.set("sweep.shard_loop_s", rung2, "s")

	path := filepath.Join(c.workDir, "probe.ckpt")
	cw, err := sbgp.OpenCheckpointWriter(path, layout, false)
	if err != nil {
		return 0, 0, err
	}
	var adds []float64
	for _, p := range partials {
		sp := tr.start("sweep.checkpoint_add", 0, "fixed")
		t0 := time.Now()
		_, err := cw.Add(p)
		adds = append(adds, micros(time.Since(t0)))
		tr.end(sp)
		if err != nil {
			cw.Close()
			return 0, 0, err
		}
	}
	if err := cw.Close(); err != nil {
		return 0, 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, 0, err
	}
	os.Remove(path)
	rep.set("sweep.checkpoint_add_us_p50", median(adds), "us")
	rep.set("sweep.checkpoint_bytes", float64(st.Size()), "bytes")

	var merges []float64
	for i := 0; i < 3; i++ {
		sp := tr.start("sweep.merge", 0, "fixed")
		t0 := time.Now()
		res, err := sim.MergeJobPartials(layout, partials)
		merges = append(merges, millis(time.Since(t0)))
		tr.end(sp)
		rep.check(err == nil && sameBytes(res, ref))
	}
	rep.set("sweep.merge_ms", median(merges), "ms")

	// Rung 3: EvaluateJob with a fresh checkpoint, on the job's workers.
	var evals []float64
	var stats sbgp.ShardStats
	for i := 0; i < c.size(3, 1); i++ {
		opts := sbgp.JobEvalOptions{Checkpoint: filepath.Join(c.workDir, fmt.Sprintf("rung3-%d.ckpt", i)), Pool: pool}
		if i == 0 {
			opts.Stats = &stats
		}
		sp := tr.start("ladder.evaluate_job", 0, "fixed")
		t0 := time.Now()
		res, err := sim.EvaluateJob(opts)
		evals = append(evals, time.Since(t0).Seconds())
		tr.end(sp)
		pool.Release()
		os.Remove(opts.Checkpoint)
		rep.check(err == nil && sameBytes(res, ref))
		// A big job is timed once; the traced run has a time budget.
		if evals[0] > 2 {
			break
		}
	}
	rung3 = median(evals)
	rep.set("sweep.evaluate_job_s", rung3, "s")
	rep.set("sweep.shards", float64(layout.Shards), "count")
	rep.set("sweep.units", float64(stats.Units), "count")
	rep.set("sweep.chain_heads", float64(stats.ChainHeads), "count")
	rep.set("sweep.delta_edges", float64(stats.DeltaEdges), "count")
	rep.set("sweep.predicted_volume", float64(stats.PredictedVolume), "edges")
	rep.set("sweep.handoff_hits", float64(stats.HandoffHits), "count")
	rep.set("sweep.handoff_misses", float64(stats.HandoffMisses), "count")
	return rung2, rung3, nil
}

func sameBytes(res *sbgp.Result, ref []byte) bool {
	if res == nil {
		return false
	}
	data, err := encode(res)
	return err == nil && bytes.Equal(data, ref)
}
