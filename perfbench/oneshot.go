package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sbgp"
)

// oneShot runs a workload's jobs as repeated EvaluateJob calls on warm
// simulations and EnginePools — what a bgpsim -job user pays per job
// once the process is up. A run spreads its jobs round-robin over
// several topologies drawn from the seed, so its figures average over
// topologies rather than hinge on one.
type oneShot struct {
	c     *config
	sims  []*sbgp.Simulation
	pools []*sbgp.EnginePool
	refs  [][]byte
	cells []int
	// checkpoint gives every job a fresh checkpoint file.
	checkpoint bool
	n          int
}

// Topologies per run: the paper grid's job is large, so fewer.
const (
	paperGridTopologies   = 2
	rolloutFineTopologies = 8
)

func runPaperGrid(c *config, rep *report, tr *tracer) error {
	var specs []*sbgp.JobSpec
	for i := 0; i < paperGridTopologies; i++ {
		specs = append(specs, paperGridSpec(c, c.topoSeed()))
	}
	return runOneShot(c, rep, tr, specs, false)
}

func runRolloutFine(c *config, rep *report, tr *tracer) error {
	var specs []*sbgp.JobSpec
	for i := 0; i < rolloutFineTopologies; i++ {
		specs = append(specs, rolloutFineSpec(c, c.topoSeed()))
	}
	return runOneShot(c, rep, tr, specs, true)
}

func runOneShot(c *config, rep *report, tr *tracer, specs []*sbgp.JobSpec, checkpoint bool) error {
	refs := newReferences()
	if err := refs.prefetch(specs, c.workers); err != nil {
		return err
	}
	o := &oneShot{c: c, checkpoint: checkpoint}
	o.sims = make([]*sbgp.Simulation, len(specs))
	// Set-up, several times over the topologies; the median is setup_s.
	// Each repetition generates a topology and builds the simulation
	// from its spec.
	var setups []float64
	for i := 0; i < max(c.size(12, 2), len(specs)); i++ {
		k := i % len(specs)
		t0 := time.Now()
		root := tr.start("setup", 0, "")
		sp := tr.start("topogen.generate", root, "")
		g, meta, err := generate(specs[k])
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.start("sbgp.simulate", root, "")
		o.sims[k], err = simulate(specs[k], g, meta)
		tr.end(sp)
		tr.end(root)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	for k, sim := range o.sims {
		cells, _, err := sim.JobGeometry()
		if err != nil {
			return err
		}
		ref, err := refs.get(specs[k])
		if err != nil {
			return err
		}
		o.cells = append(o.cells, cells)
		o.refs = append(o.refs, ref)
		o.pools = append(o.pools, sbgp.NewEnginePool())
	}
	// No warm-up job: the simulations are built, and a pool fills within
	// its first job — on rollout-fine the first job of a fresh pool ran
	// no slower than the later ones (0.66 s against 0.67–0.76 s).
	rounds := len(o.sims)
	untraced := runPhase(phaseDuration(c), 1, rounds, func() (int, time.Duration, bool) { return o.job(rep, nil) })
	if !c.trace {
		endToEnd(rep, setups, untraced)
		return nil
	}
	traced := runPhase(phaseDuration(c), 1, rounds, func() (int, time.Duration, bool) { return o.job(rep, tr) })
	tracingOverhead(c, rep, untraced, traced)
	return probeLayers(c, rep, tr, specs[0], refs, nil)
}

// job runs the next EvaluateJob in round-robin order and checks its
// bytes.
func (o *oneShot) job(rep *report, tr *tracer) (int, time.Duration, bool) {
	k := o.n % len(o.sims)
	id := fmt.Sprintf("job-%d", o.n)
	o.n++
	opts := sbgp.JobEvalOptions{Pool: o.pools[k]}
	if o.checkpoint {
		opts.Checkpoint = filepath.Join(o.c.workDir, id+".ckpt")
	}
	sp := tr.start("sbgp.evaluate_job", 0, id)
	t0 := time.Now()
	res, err := o.sims[k].EvaluateJob(opts)
	lat := time.Since(t0)
	tr.end(sp)
	o.pools[k].Release()
	if opts.Checkpoint != "" {
		os.Remove(opts.Checkpoint)
	}
	ok := err == nil && sameBytes(res, o.refs[k])
	if !ok {
		logf("%s failed: err=%v (or bytes differ from the reference)", id, err)
	}
	rep.check(ok)
	return o.cells[k], lat, ok
}
