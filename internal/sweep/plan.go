package sweep

// The exported shard-layout API: everything a distributed split needs
// to hand shards of one grid to workers that share no memory with the
// caller. A Layout is the portable identity of a sharded evaluation —
// fingerprint plus geometry — and a ShardRange is a contiguous slice of
// its shard space. PlanShards cuts the scheduled cell space into
// chain-aligned units (a RunDelta chain never crosses a unit boundary,
// so leasing whole units keeps delta reuse worker-local);
// EvaluateShardRange evaluates any range against a layout it first
// verifies; MergePartials folds a complete partial set back into the
// same bytes EvaluateSharded would have produced. Every evaluator —
// flat, prepared, sharded (shard.go) and range — runs through the one
// dispatcher below, so "flat", "distributed" and "local" are the same
// computation cut differently.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"sbgp/internal/asgraph"
	"sbgp/internal/runner"
)

// Layout is the portable identity and geometry of one sharded grid
// evaluation. Two parties holding equal Layouts are guaranteed to mean
// the same cell space, the same scheduled order, and the same shard
// cuts — so shard indices, partials, and checkpoint records are
// interchangeable between them, and nothing else is.
type Layout struct {
	Fingerprint string `json:"fingerprint"`
	Cells       int    `json:"cells"`
	Tasks       int    `json:"tasks"`
	ShardSize   int    `json:"shard_size"`
	Shards      int    `json:"shards"`
}

// ShardRange is a half-open range [Start, End) of shard indices.
type ShardRange struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// Len returns the number of shards in the range.
func (r ShardRange) Len() int { return r.End - r.Start }

// geometry rejects a Layout whose fields cannot all be true at once.
func (l *Layout) geometry() error {
	if len(l.Fingerprint) != 16 {
		return fmt.Errorf("sweep: malformed layout fingerprint %q", l.Fingerprint)
	}
	if l.Cells <= 0 || l.Tasks <= 0 || l.ShardSize <= 0 || l.Shards != numShards(l.Cells, l.ShardSize) {
		return fmt.Errorf("sweep: inconsistent layout geometry (cells=%d tasks=%d shard_size=%d shards=%d)",
			l.Cells, l.Tasks, l.ShardSize, l.Shards)
	}
	return nil
}

// check verifies the layout against the identity of a concretely
// expanded grid. Mixing partials across layouts is the one mistake a
// distributed split must make impossible, so the mismatch error is
// loud and names both fingerprints.
func (l *Layout) check(fingerprint string, cells, tasks int) error {
	if err := l.geometry(); err != nil {
		return err
	}
	if l.Fingerprint != fingerprint || l.Cells != cells || l.Tasks != tasks {
		return fmt.Errorf("sweep: layout belongs to a different grid "+
			"(layout fingerprint %s cells=%d tasks=%d; this grid is fingerprint %s cells=%d tasks=%d)",
			l.Fingerprint, l.Cells, l.Tasks, fingerprint, cells, tasks)
	}
	return nil
}

// ValidatePartial checks one shard partial against the layout: shard
// index in range, well-shaped arrays, task indices inside the task
// space. It does not — cannot — verify the integer counts themselves;
// the fingerprint binding is what guarantees an honest worker's counts
// are the right ones.
func (l *Layout) ValidatePartial(p *ShardPartial) error {
	if p == nil {
		return fmt.Errorf("sweep: nil shard partial")
	}
	if p.Shard < 0 || p.Shard >= l.Shards {
		return fmt.Errorf("sweep: shard %d out of range [0,%d)", p.Shard, l.Shards)
	}
	if err := validatePartialShape(p); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	for _, ti := range p.Tasks {
		if ti >= l.Tasks {
			return fmt.Errorf("sweep: shard %d: task %d out of range [0,%d)", p.Shard, ti, l.Tasks)
		}
	}
	return nil
}

// pendingUnits cuts a sorted list of pending shard indices into
// dispatch units: maximal runs of consecutive shards split wherever the
// boundary position is handoff-free. A unit's shards are evaluated in
// order by one worker, so every boundary *inside* a unit — exactly the
// boundaries that cut a chain mid-group — has its tail fixed point
// offered before the continuation runs. That turns cross-shard delta
// handoff from opportunistic into deterministic: on a fresh run every
// take hits. Identity schedules have only free boundaries, so units
// degenerate to single shards and the historical per-shard dispatch.
func pendingUnits(sched *schedule, pending []int, size int) []ShardRange {
	var units []ShardRange
	for i := 0; i < len(pending); {
		j := i + 1
		for j < len(pending) && pending[j] == pending[j-1]+1 && !sched.handoffFree(pending[j]*size) {
			j++
		}
		units = append(units, ShardRange{Start: pending[i], End: pending[j-1] + 1})
		i = j
	}
	return units
}

// PlanShards validates the grid on g and returns its shard Layout plus
// the chain-aligned dispatch units covering the whole shard space
// (shardSize ≤ 0 means DefaultShardSize). A coordinator leases whole
// units — or contiguous runs of them — so RunDelta chains stay local to
// the worker holding the lease.
func (gr *Grid) PlanShards(g *asgraph.Graph, shardSize int) (*Layout, []ShardRange, error) {
	ax, err := gr.expand()
	if err != nil {
		return nil, nil, err
	}
	sched := newSchedule(gr, ax, g)
	size := shardSize
	if size <= 0 {
		size = DefaultShardSize
	}
	l := &Layout{
		Fingerprint: gr.fingerprint(g, ax, sched),
		Cells:       ax.cells,
		Tasks:       ax.tasks,
		ShardSize:   size,
		Shards:      numShards(ax.cells, size),
	}
	all := make([]int, l.Shards)
	for s := range all {
		all[s] = s
	}
	return l, pendingUnits(sched, all, size), nil
}

// RangeOptions configures EvaluateShardRange.
type RangeOptions struct {
	// Sink observes every completed shard's partial, exactly once, after
	// it is fully evaluated. Called serially; a non-nil error aborts the
	// evaluation. Delivery order is scheduling-dependent.
	Sink func(*ShardPartial) error

	// Stats, when non-nil, accumulates dispatch and handoff counters.
	Stats *ShardStats

	// Pool overrides the grid's EnginePool for this range — the
	// warm-engine hook for a worker evaluating many leases of one job.
	Pool *EnginePool
}

// EvaluateShardRange evaluates the shards [r.Start, r.End) of the
// grid's layout on g, streaming each completed partial to opts.Sink.
// The layout is verified against the grid first — a layout from a
// different grid (or the same grid under a different schedule) is
// rejected with a fingerprint mismatch rather than evaluated into
// meaningless shard indices. This is the worker half of a distributed
// evaluation: partials it emits merge byte-identically with partials
// from any other worker holding the same layout.
func (gr *Grid) EvaluateShardRange(ctx context.Context, g *asgraph.Graph, l *Layout, r ShardRange, opts RangeOptions) error {
	ax, err := gr.expand()
	if err != nil {
		return err
	}
	sched := newSchedule(gr, ax, g)
	if err := l.check(gr.fingerprint(g, ax, sched), ax.cells, ax.tasks); err != nil {
		return err
	}
	if r.Start < 0 || r.End > l.Shards || r.Start >= r.End {
		return fmt.Errorf("sweep: shard range [%d,%d) invalid for layout with %d shards", r.Start, r.End, l.Shards)
	}
	if opts.Pool != nil {
		shadow := *gr
		shadow.Pool = opts.Pool
		gr = &shadow
	}
	pending := make([]int, 0, r.Len())
	for s := r.Start; s < r.End; s++ {
		pending = append(pending, s)
	}
	commit := opts.Sink
	if commit == nil {
		commit = func(*ShardPartial) error { return nil }
	}
	units := pendingUnits(sched, pending, l.ShardSize)
	return gr.newDispatch(g, sched, l.ShardSize, units, opts.Sink == nil, opts.Stats, commit).run(ctx)
}

// MergePartials folds a complete set of shard partials — one per shard
// of the layout, in any order — into the grid's Result. The layout is
// verified against the grid, every partial is validated, and duplicate
// or missing shards are errors: the caller (a coordinator reconciling
// worker submissions) is expected to have already deduplicated by shard
// index. The positional integer merge makes the Result byte-identical
// to EvaluateSharded regardless of which worker produced which shard.
func (gr *Grid) MergePartials(g *asgraph.Graph, l *Layout, partials []*ShardPartial) (*Result, error) {
	ax, err := gr.expand()
	if err != nil {
		return nil, err
	}
	sched := newSchedule(gr, ax, g)
	if err := l.check(gr.fingerprint(g, ax, sched), ax.cells, ax.tasks); err != nil {
		return nil, err
	}
	seen := make([]bool, l.Shards)
	acc := make([]destAcc, ax.tasks)
	for _, p := range partials {
		if err := l.ValidatePartial(p); err != nil {
			return nil, err
		}
		if seen[p.Shard] {
			return nil, fmt.Errorf("sweep: duplicate partial for shard %d", p.Shard)
		}
		seen[p.Shard] = true
		fold(acc, p)
	}
	for s, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("sweep: missing partial for shard %d", s)
		}
	}
	return gr.reduce(g, ax, acc), nil
}

// fold adds one partial's exact counts into the task accumulator —
// the positional integer merge, so any fold order gives the same bytes.
func fold(acc []destAcc, p *ShardPartial) {
	for i, ti := range p.Tasks {
		a := &acc[ti]
		a.lo += p.Lo[i]
		a.hi += p.Hi[i]
		a.pairs += p.Pairs[i]
	}
}

// dispatch is the one loop that evaluates a grid. Its units fan out
// over the worker pool, each unit's shards run in order on one worker
// (so a carried chain tail never crosses a goroutine), and each
// completed partial is committed serially under mu. A commit error sets
// failed, which evaluateRange checks wherever it checks ctx, so the
// remaining shards stop promptly; once either is set, commit is never
// called again, so a sink that cancels the context sees no further
// partials. Sharded evaluation cuts shards of size cells; flat
// evaluation has size 0, where shard s is the schedule's range s.
//
// With reuse set, the partial handed to commit is the worker's own
// scratch, valid only during the call: pass it only when commit (and
// everything it feeds) copies what it keeps before returning. That is
// what makes the steady-state loop allocation-free. A dispatch may run
// many times (a prepared Evaluation keeps one), but not concurrently.
type dispatch struct {
	gr     *Grid
	g      *asgraph.Graph
	sched  *schedule
	size   int
	units  []ShardRange
	reuse  bool
	stats  *ShardStats
	commit func(p *ShardPartial) error

	// Per-run state, reset by run.
	ctx          context.Context
	failed       atomic.Bool
	mu           sync.Mutex
	err          error
	hits, misses int

	// Method values bound once, so run allocates no func values.
	newState func() *workerState
	unitFn   func(ws *workerState, ui int)
}

func (gr *Grid) newDispatch(g *asgraph.Graph, sched *schedule, size int, units []ShardRange, reuse bool, stats *ShardStats, commit func(p *ShardPartial) error) *dispatch {
	d := &dispatch{gr: gr, g: g, sched: sched, size: size, units: units, reuse: reuse, stats: stats, commit: commit}
	d.newState = gr.newWorkerState
	d.unitFn = d.unit
	return d
}

// flatDispatch is flat evaluation: one single-shard unit per schedule
// range, no sink, and each range's reusable partial folded into acc.
func (gr *Grid) flatDispatch(g *asgraph.Graph, sched *schedule, acc []destAcc) *dispatch {
	units := make([]ShardRange, sched.numRanges())
	for ri := range units {
		units[ri] = ShardRange{Start: ri, End: ri + 1}
	}
	return gr.newDispatch(g, sched, 0, units, true, nil, func(p *ShardPartial) error {
		fold(acc, p)
		return nil
	})
}

// run evaluates every unit, returning the first commit error, else
// ctx.Err().
func (d *dispatch) run(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	d.ctx, d.err, d.hits, d.misses = ctx, nil, 0, 0
	d.failed.Store(false)
	err := runner.ForEach(ctx, len(d.units), d.gr.Workers, d.newState, d.unitFn)
	if d.stats != nil {
		d.stats.Units += len(d.units)
		d.stats.HandoffHits += d.hits
		d.stats.HandoffMisses += d.misses
		// Planner fields describe the schedule itself, not this dispatch:
		// assignment, not accumulation, so re-evaluating the same layout
		// (resume, range leases) reports the same plan.
		d.stats.ChainHeads = d.sched.planHeads
		d.stats.DeltaEdges = d.sched.planDeltaEdges
		d.stats.PredictedVolume = d.sched.planPredictedVol
	}
	if d.err != nil {
		return d.err
	}
	return err
}

// unit evaluates dispatch unit ui's shards in order and commits each.
//
//sbgp:hotpath
func (d *dispatch) unit(ws *workerState, ui int) {
	u := d.units[ui]
	// Chain tail carry across the unit's interior shard boundaries
	// (chain-major schedules only), reset per unit.
	var c *carry
	if !d.sched.identity() {
		c = &ws.chainCarry
		c.reset()
	}
	for s := u.Start; s < u.End; s++ {
		start, end := s*d.size, min((s+1)*d.size, d.sched.ax.cells)
		if d.size == 0 {
			start, end = d.sched.rangeAt(s)
		}
		p, ok := d.gr.evaluateShardPartial(d.ctx, &d.failed, d.g, ws, d.sched, c, s, start, end, d.reuse)
		if !ok {
			break
		}
		d.mu.Lock()
		if d.failed.Load() || d.ctx.Err() != nil {
			d.mu.Unlock()
			break
		}
		if err := d.commit(p); err != nil {
			d.err = err
			d.failed.Store(true)
			d.mu.Unlock()
			break
		}
		d.mu.Unlock()
	}
	if c != nil && (c.hits != 0 || c.misses != 0) {
		d.mu.Lock()
		d.hits += c.hits
		d.misses += c.misses
		d.mu.Unlock()
	}
}
