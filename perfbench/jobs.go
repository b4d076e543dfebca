package main

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"time"

	"sbgp"
)

// jobStream is the daemon workloads' job sequence: three of every four
// jobs reuse one of the warm topology seeds, in turn; every fourth draws
// a fresh seed, which misses the daemon's topology cache.
type jobStream struct {
	c    *config
	warm []*sbgp.JobSpec
	rng  *rand.Rand
	n    int
}

// warmTopologies is the number of warm topology seeds a daemon stream
// cycles through, all resident in the daemon's topology cache.
const warmTopologies = 4

func newJobStream(c *config, warm []*sbgp.JobSpec) *jobStream {
	return &jobStream{c: c, warm: warm, rng: rand.New(rand.NewSource(c.seed + 1))}
}

func (s *jobStream) next() (spec *sbgp.JobSpec, cold bool) {
	s.n++
	if s.n%4 != 0 {
		return s.warm[(s.n-s.n/4-1)%len(s.warm)], false
	}
	for {
		seed := 1 + s.rng.Int63n(1<<31)
		if !slices.ContainsFunc(s.warm, func(w *sbgp.JobSpec) bool { return w.Topology.Seed == seed }) {
			return daemonSpec(s.c, seed), true
		}
	}
}

// runDaemon runs the daemon-jobs workload, or with distMode the
// dist-jobs workload: one client submits the job stream to an
// in-process daemon in a closed loop.
func runDaemon(c *config, rep *report, tr *tracer, distMode bool) error {
	var warm []*sbgp.JobSpec
	for i := 0; i < warmTopologies; i++ {
		warm = append(warm, daemonSpec(c, c.topoSeed()))
	}
	refs := newReferences()
	if err := refs.prefetch(warm, c.workers); err != nil {
		return err
	}
	// checked runs one job and checks its bytes against the reference.
	checked := func(d *daemon, spec *sbgp.JobSpec, tr *tracer) (*jobRun, error) {
		r, err := d.runJob(spec, false, tr)
		if err != nil {
			return nil, err
		}
		ref, err := refs.get(spec)
		if err != nil {
			return nil, err
		}
		rep.check(bytes.Equal(r.data, ref))
		return r, nil
	}
	// warmUp runs every warm job once, so the timed phase starts with
	// all warm topologies cached.
	warmUp := func(d *daemon, tr *tracer) error {
		for _, spec := range warm[1:] {
			if _, err := checked(d, spec, tr); err != nil {
				return err
			}
		}
		return nil
	}
	// Set-up, several times; the median is setup_s. Each repetition
	// opens the server, the listener and (dist mode) the workers, and
	// runs one warm-up job.
	var setups []float64
	var d *daemon
	for i := 0; i < c.size(5, 1); i++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		var err error
		d, err = startDaemon(c, distMode, false, nil)
		if err != nil {
			return err
		}
		_, err = checked(d, warm[0], nil)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			d.stop()
			return err
		}
	}
	if err := warmUp(d, nil); err != nil {
		d.stop()
		return err
	}

	stream := newJobStream(c, warm)
	var cold []*jobRun
	step := func(d *daemon, tr *tracer, keep *[]*jobRun) func() (int, time.Duration, bool) {
		return func() (int, time.Duration, bool) {
			spec, isCold := stream.next()
			r, err := d.runJob(spec, isCold, tr)
			if err != nil {
				logf("job failed: %v", err)
				rep.check(false)
				return 0, 0, false
			}
			if keep != nil {
				*keep = append(*keep, r)
			}
			if isCold {
				// Checked once the timed phases are over.
				cold = append(cold, r)
			} else {
				ref, err := refs.get(spec)
				ok := err == nil && bytes.Equal(r.data, ref)
				rep.check(ok)
				r.data = nil
				if !ok {
					logf("job %s: bytes differ from the reference", r.id)
					return 0, 0, false
				}
			}
			return r.final.Cells, r.latency(), true
		}
	}
	untraced := runPhase(phaseDuration(c), 1, 1, step(d, nil, nil))
	d.stop()

	var loop *loopRuns
	var traced phase
	if c.trace {
		// The traced phase runs on a second daemon whose workers carry
		// the timing instrumentation.
		var err error
		d, err = startDaemon(c, distMode, true, tr)
		if err != nil {
			return err
		}
		_, err = checked(d, warm[0], tr)
		if err == nil {
			err = warmUp(d, tr)
		}
		if err != nil {
			d.stop()
			return err
		}
		before := d.counters()
		loop = &loopRuns{dist: distMode, d: d}
		traced = runPhase(phaseDuration(c), 4, 1, step(d, tr, &loop.runs))
		loop.stats = d.counters().sub(before)
		d.stop()
	}

	// Cold jobs' references: a distinct topology each, computed after
	// timing so the timed phases run alone.
	var coldSpecs []*sbgp.JobSpec
	for _, r := range cold {
		coldSpecs = append(coldSpecs, r.spec)
	}
	if err := refs.prefetch(coldSpecs, c.workers); err != nil {
		return err
	}
	for _, r := range cold {
		ref, err := refs.get(r.spec)
		ok := err == nil && bytes.Equal(r.data, ref)
		rep.check(ok)
		if !ok {
			logf("cold job %s: bytes differ from the reference (err=%v)", r.id, err)
		}
	}
	if !c.trace {
		endToEnd(rep, setups, untraced)
		return nil
	}
	tracingOverhead(c, rep, untraced, traced)
	return probeLayers(c, rep, tr, warm[0], refs, loop)
}

// probeDaemon runs the fixed job on a fresh instrumented daemon, first
// cold (a topology cache miss), then repeats more times warm.
func probeDaemon(c *config, rep *report, tr *tracer, spec *sbgp.JobSpec, refs *references, distMode bool, repeats int) (*loopRuns, error) {
	ref, err := refs.get(spec)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(c, distMode, true, tr)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	lr := &loopRuns{dist: distMode, d: d}
	before := d.counters()
	for i := 0; i <= repeats; i++ {
		r, err := d.runJob(spec, i == 0, tr)
		ok := err == nil && bytes.Equal(r.data, ref)
		rep.check(ok)
		if !ok {
			logf("probe job failed (err=%v) or bytes differ from the reference", err)
			continue
		}
		r.data = nil
		lr.runs = append(lr.runs, r)
	}
	lr.stats = d.counters().sub(before)
	return lr, nil
}

// distCounters are the coordinator's and workers' protocol counters.
type distCounters struct {
	leases, expired, duplicates, shipped int
}

func (d *daemon) counters() distCounters {
	if d.coord == nil {
		return distCounters{}
	}
	st := d.coord.Stats()
	dc := distCounters{leases: st.LeasesGranted, expired: st.LeasesExpired, duplicates: st.Duplicates}
	for _, w := range d.workers {
		dc.shipped += w.Stats().ShardsShipped
	}
	return dc
}

func (a distCounters) sub(b distCounters) distCounters {
	return distCounters{a.leases - b.leases, a.expired - b.expired, a.duplicates - b.duplicates, a.shipped - b.shipped}
}

// serviceMetrics reports the service layer from daemon job runs and
// returns rung 4: the median latency of the warm jobs.
func serviceMetrics(rep *report, runs []*jobRun) float64 {
	var submit, queue, run, runCold, notify, result, events, warm []float64
	for _, r := range runs {
		submit = append(submit, millis(r.submitted.Sub(r.start)))
		queue = append(queue, millis(r.final.Started.Sub(r.final.Submitted)))
		ms := millis(r.final.Finished.Sub(r.final.Started))
		if r.cold {
			runCold = append(runCold, ms)
		} else {
			run = append(run, ms)
			warm = append(warm, r.latency().Seconds())
		}
		notify = append(notify, millis(r.notified.Sub(r.final.Finished)))
		result = append(result, millis(r.end.Sub(r.resultStart)))
		events = append(events, float64(r.events))
	}
	rung4 := median(warm)
	rep.set("service.submit_ms_p50", median(submit), "ms")
	rep.set("service.queue_ms_p50", median(queue), "ms")
	rep.set("service.run_ms_p50", median(run), "ms")
	rep.set("service.run_ms_cold_p50", median(runCold), "ms")
	rep.set("service.notify_ms_p50", median(notify), "ms")
	rep.set("service.result_ms_p50", median(result), "ms")
	rep.set("service.events_per_job", sum(events)/float64(max(1, len(events))), "count")
	rep.set("service.job_s", rung4, "s")
	return rung4
}

// distMetrics reports the dist layer from daemon job runs in dist mode
// and returns rung 5: the median latency of the warm jobs.
func distMetrics(rep *report, lr *loopRuns) float64 {
	runs := lr.runs
	jobs := float64(max(1, len(runs)))
	var lo, hi time.Time
	if len(runs) > 0 {
		lo, hi = runs[0].start, runs[len(runs)-1].end
	}
	in := func(t, a, b time.Time) bool { return !t.Before(a) && !t.After(b) }

	rtts := map[string][]float64{}
	var opens []float64
	var evalMS float64
	var workerIvals [][]interval
	for _, p := range lr.d.probes {
		ivs := p.snapshot()
		workerIvals = append(workerIvals, ivs)
		for _, iv := range ivs {
			if !in(iv.start, lo, hi) {
				continue
			}
			dur := millis(iv.end.Sub(iv.start))
			switch {
			case iv.kind == "open":
				opens = append(opens, dur)
			case iv.kind == "eval":
				evalMS += dur
			case strings.HasPrefix(iv.kind, "rtt."):
				ep := strings.TrimPrefix(iv.kind, "rtt.")
				rtts[ep] = append(rtts[ep], dur)
			}
		}
	}
	// Idle time: the job's service run time minus the busiest worker's
	// open, plan, evaluation and protocol time inside that run.
	var idle, warm []float64
	for _, r := range runs {
		busiest := 0.0
		for _, ivs := range workerIvals {
			busy := 0.0
			for _, iv := range ivs {
				if in(iv.start, r.final.Started, r.final.Finished) {
					busy += millis(iv.end.Sub(iv.start))
				}
			}
			busiest = max(busiest, busy)
		}
		idle = append(idle, millis(r.final.Finished.Sub(r.final.Started))-busiest)
		if !r.cold {
			warm = append(warm, r.latency().Seconds())
		}
	}
	for _, ep := range []string{"job", "lease", "offer", "submit"} {
		rep.set("dist.rtt_ms_p50."+ep, median(rtts[ep]), "ms")
	}
	for _, ep := range []string{"job", "lease", "heartbeat", "offer", "submit"} {
		rep.set("dist.calls_per_job."+ep, float64(len(rtts[ep]))/jobs, "count")
	}
	st := lr.stats
	rep.set("dist.leases_per_job", float64(st.leases)/jobs, "count")
	rep.set("dist.leases_expired", float64(st.expired), "count")
	rep.set("dist.duplicates", float64(st.duplicates), "count")
	rep.set("dist.shards_shipped", float64(st.shipped)/jobs, "count")
	rep.set("dist.open_ms_p50", median(opens), "ms")
	rep.set("dist.eval_ms_per_job", evalMS/jobs, "ms")
	rep.set("dist.idle_ms_per_job", sum(idle)/jobs, "ms")
	rung5 := median(warm)
	rep.set("dist.job_s", rung5, "s")
	return rung5
}
