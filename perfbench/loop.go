package main

import (
	"time"
)

// phase is one timed phase of a closed loop with one client: the next
// job starts only after the previous one has returned.
type phase struct {
	jobs  int
	cells int
	wall  time.Duration
	cpu   time.Duration
	// stealPct is the share of the machine's CPU time the hypervisor
	// gave to others during the phase (logged, to explain noisy runs).
	stealPct float64
	// lat holds the latency in seconds of every job that succeeded.
	lat []float64
}

func (p *phase) cellsPerS() float64 { return float64(p.cells) / p.wall.Seconds() }

// cpuUtil is process CPU time over wall time × GOMAXPROCS.
func (p *phase) cpuUtil(procs int) float64 {
	return p.cpu.Seconds() / (p.wall.Seconds() * float64(procs))
}

// runPhase runs step back to back until dur has elapsed, at least
// minJobs jobs have run, and the job count is a whole number of rounds
// (a workload cycling over several inputs then weighs each equally).
// step returns the cells its job completed and the job's latency, or
// ok=false when the job failed (failed jobs add no cells and no
// latency sample, and are counted by the step itself).
func runPhase(dur time.Duration, minJobs, round int, step func() (cells int, lat time.Duration, ok bool)) phase {
	var p phase
	total0, steal0 := cpuStat()
	cpu0 := cpuTime()
	start := time.Now()
	for p.jobs < minJobs || p.jobs%round != 0 || time.Since(start) < dur {
		cells, lat, ok := step()
		p.jobs++
		if ok {
			p.cells += cells
			p.lat = append(p.lat, lat.Seconds())
		}
	}
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	total1, steal1 := cpuStat()
	if total1 > total0 {
		p.stealPct = 100 * (steal1 - steal0) / (total1 - total0)
	}
	return p
}

// endToEnd reports the end-to-end metrics of an untraced run.
func endToEnd(rep *report, setups []float64, p phase) {
	rep.set("setup_s", median(setups), "s")
	rep.set("cells_per_s", p.cellsPerS(), "cells/s")
	rep.set("job_s_p50", median(p.lat), "s")
	rep.set("job_s_p90", quantile(p.lat, 0.9), "s")
	rep.set("max_rss_mb", peakRSSMB(), "MB")
	logf("timed phase: %d jobs (%d succeeded) in %.2fs, job_s_p50 %.4f over %d samples, %.1f%% CPU steal",
		p.jobs, len(p.lat), p.wall.Seconds(), median(p.lat), len(p.lat), p.stealPct)
}

// phaseDuration splits the timed budget: an untraced run spends it all
// on one phase; a traced run spends half untraced and half traced, so
// the two give the tracing overhead.
func phaseDuration(c *config) time.Duration {
	d := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		d /= 2
	}
	return d
}

// tracingOverhead reports traced against untraced throughput and the
// untraced phase's CPU utilization.
func tracingOverhead(c *config, rep *report, untraced, traced phase) {
	rep.set("trace.cells_per_s_untraced", untraced.cellsPerS(), "cells/s")
	rep.set("trace.cells_per_s_traced", traced.cellsPerS(), "cells/s")
	rep.set("trace.overhead_ratio", traced.cellsPerS()/untraced.cellsPerS(), "ratio")
	rep.set("runner.cpu_util", untraced.cpuUtil(c.workers), "ratio")
}
