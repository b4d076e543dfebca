package sweep

// The unified chain-major scheduler. The flat and sharded evaluators
// used to carry their own copy of the chain-walk logic, and the sharded
// copy cut shards on the raw (deployment-outermost) cell order, so a
// nested-deployment chain crossing a shard boundary re-ran its head
// from scratch in every shard it touched. This file replaces both walks
// with one, which the one dispatcher (plan.go) runs for every evaluator:
//
//   - A schedule is a permutation of the flattened (deployment × model
//     × destination × attacker) cell space. Incremental grids order it
//     chain-major: chains — nested chains or linearized signed-delta
//     forest trees (chain.go) — outermost, then (model, destination,
//     attacker) groups, then chain position — so the cells a RunDelta
//     walk visits are *contiguous*. Shards are cut on the scheduled
//     order, which means a walk now straddles at most one boundary per
//     shard instead of scattering one cell into every shard.
//   - Non-incremental grids (and incremental grids whose deployment
//     axis the planner cannot link at all — a singleton axis, or one
//     whose every pairwise delta costs at least a from-scratch run)
//     keep the identity schedule: the exact cell order, shard layout,
//     and checkpoint fingerprint of the previous releases.
//   - evaluateRange walks any scheduled range, adding one exact
//     integer (task, lo, hi) triple per valid cell to the worker's
//     shard accumulator. Partials stay positional, so results remain
//     byte-identical to the unscheduled evaluation at every worker
//     count and shard size.
//   - Where a shard boundary does split a chain, the shard holding the
//     continuation runs its first step with RunAttack on that step's
//     deployment and continues with RunDelta. That is exact, because
//     RunDelta equals RunAttack, and it costs one engine run per shard,
//     so every shard is an independent dispatch unit: no fixed point
//     ever crosses a shard boundary, a goroutine, or a machine.

import (
	"context"
	"sort"
	"sync/atomic"

	"sbgp/internal/asgraph"
	"sbgp/internal/core"
)

// schedule maps scheduled cell positions onto the grid's cell space. A
// nil plan is the identity schedule.
type schedule struct {
	ax   *axes
	plan *chainPlan
	// blockStart[ci] is the scheduled offset of chain ci's block;
	// blockStart[len(chains)] == ax.cells. Chain-major only.
	blockStart []int

	// Planner cost-model totals for one (model, destination, attacker)
	// group walk, surfaced through ShardStats: from-scratch heads,
	// RunDelta edges, and the predicted adjacency edge-volume. On the
	// identity schedule every deployment is a head.
	planHeads        int
	planDeltaEdges   int
	planPredictedVol int64
}

// newSchedule plans the grid's cell order on g: chain-major when the
// grid is incremental (IncrementalAuto or IncrementalOn) and the
// planner links any two deployments by a delta — nested chains and
// signed-delta forests alike (chain.go) — the identity order otherwise.
// The degradation to identity is what keeps singleton axes — and every
// non-incremental grid — on the exact pre-scheduler shard layout and
// checkpoint fingerprint. The graph feeds the planner's edge-volume
// cost model; the plan is a deterministic function of (graph, grid), so
// distributed workers recomputing it independently agree on the layout.
func newSchedule(gr *Grid, ax *axes, g *asgraph.Graph) *schedule {
	s := &schedule{ax: ax, planHeads: len(ax.deps)}
	if !gr.Incremental.enabled() {
		s.planPredictedVol = int64(s.planHeads) * fromScratchCost(g)
		return s
	}
	plan := buildChainPlan(ax.deps, g)
	s.planHeads = plan.heads
	s.planDeltaEdges = plan.deltaEdges
	s.planPredictedVol = plan.predictedVol
	chained := false
	for _, ch := range plan.chains {
		if len(ch) > 1 {
			chained = true
			break
		}
	}
	if !chained {
		return s
	}
	s.plan = plan
	s.blockStart = make([]int, len(plan.chains)+1)
	for ci, ch := range plan.chains {
		s.blockStart[ci+1] = s.blockStart[ci] + len(ch)*ax.nm*ax.nd*ax.na
	}
	return s
}

// identity reports whether the scheduled order equals the raw cell
// order (shard layouts and fingerprints are interchangeable with the
// pre-scheduler ones exactly when this holds).
func (s *schedule) identity() bool { return s.plan == nil }

// chainAt returns the chain whose block holds scheduled position p.
func (s *schedule) chainAt(p int) int {
	return sort.SearchInts(s.blockStart[1:], p+1)
}

// numRanges returns how many one-shard units flat evaluation cuts the
// schedule into: one per (deployment, model, destination) task on the
// identity schedule — the historical granularity — and one per (chain,
// model, destination) walk on a chain-major schedule, so every RunDelta
// chain stays within a single worker.
func (s *schedule) numRanges() int {
	if s.plan == nil {
		return s.ax.tasks
	}
	return len(s.plan.chains) * s.ax.nm * s.ax.nd
}

// rangeAt returns the scheduled half-open range of flat range ri.
func (s *schedule) rangeAt(ri int) (start, end int) {
	if s.plan == nil {
		return ri * s.ax.na, (ri + 1) * s.ax.na
	}
	nmnd := s.ax.nm * s.ax.nd
	ci := ri / nmnd
	rem := ri % nmnd
	mi, di := rem/s.ax.nd, rem%s.ax.nd
	clen := len(s.plan.chains[ci])
	start = s.blockStart[ci] + (mi*s.ax.nd+di)*s.ax.na*clen
	return start, start + s.ax.na*clen
}

// evaluateRange evaluates the scheduled positions [start, end), adding
// each valid (attacker ≠ destination) cell's exact integer happy bounds
// to the worker's shard accumulator. Cells are visited in scheduled
// order; on a chain-major schedule each group run reuses the
// previous step's fixed point via RunDelta — replaying the step's
// removed-then-added signed delta in one call, so forest walks that
// shrink a deployment ride the same path as grow-only chains. A range
// that starts mid-walk on a valid group runs that step with RunAttack
// and records the restart in the accumulator (ShardStats'
// HandoffMisses). It reports false if ctx was cancelled or stop was
// set (a failed commit), in which case the accumulated counts must be
// discarded.
//
//sbgp:hotpath
func (gr *Grid) evaluateRange(ctx context.Context, stop *atomic.Bool, g *asgraph.Graph, ws *workerState, s *schedule, start, end int) bool {
	ax := s.ax
	if s.plan == nil {
		// Identity: one RunAttack per cell, grouped by task.
		for cs := start; cs < end; {
			if ctx.Err() != nil || stop.Load() {
				return false
			}
			ti := cs / ax.na
			aiStart := cs % ax.na
			aiEnd := ax.na
			if (ti+1)*ax.na > end {
				aiEnd = end - ti*ax.na
			}
			si, mi, di := ax.decodeTask(ti)
			e := ws.engine(g, ax.models[mi], gr.LP)
			d := gr.Destinations[di]
			dep := ax.deps[si].Dep
			for ai := aiStart; ai < aiEnd; ai++ {
				m := gr.Attackers[ai]
				if m == d {
					continue
				}
				e.RunAttack(d, m, dep, gr.Attack)
				lo, hi := e.HappyBounds()
				ws.acc.add(ti, lo, hi)
			}
			cs = ti*ax.na + aiEnd
		}
		return true
	}

	// Chain-major: decompose [start, end) into group runs. Groups are
	// contiguous runs of one chain's positions for a fixed (model,
	// destination, attacker); only the first group of the range can
	// start mid-chain, and only the last can be cut short.
	nd, na := ax.nd, ax.na
	for p := start; p < end; {
		ci := s.chainAt(p)
		bs := s.blockStart[ci]
		ch := s.plan.chains[ci]
		clen := len(ch)
		r := p - bs
		gi := r / clen
		pos0 := r % clen
		gEnd := bs + (gi+1)*clen
		p1 := gEnd
		if p1 > end {
			p1 = end
		}
		mi := gi / (nd * na)
		rem := gi % (nd * na)
		di, ai := rem/na, rem%na
		d, m := gr.Destinations[di], gr.Attackers[ai]
		if m == d {
			p = p1
			continue
		}
		e := ws.engine(g, ax.models[mi], gr.LP)
		if pos0 > 0 {
			ws.acc.midWalk = true
		}
		var prev *core.Outcome
		posEnd := pos0 + (p1 - p)
		for pos := pos0; pos < posEnd; pos++ {
			// A group run covers up to a whole chain of engine runs —
			// re-check the context and stop flag per step so
			// cancellation stays prompt.
			if ctx.Err() != nil || stop.Load() {
				return false
			}
			step := ch[pos]
			dep := ax.deps[step.si].Dep
			if prev == nil {
				prev = e.RunAttack(d, m, dep, gr.Attack)
			} else {
				prev = e.RunDelta(prev, step.added, step.removed, dep, gr.Attack)
			}
			lo, hi := e.HappyBounds()
			ws.acc.add((step.si*ax.nm+mi)*ax.nd+di, lo, hi)
		}
		p = p1
	}
	return true
}
