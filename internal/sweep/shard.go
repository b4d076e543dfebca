package sweep

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"sync/atomic"

	"sbgp/internal/asgraph"
)

// DefaultShardSize is the cell count per shard when ShardOptions leaves
// ShardSize zero: large enough that the per-shard bookkeeping (one
// checkpoint record, one merge pass) is negligible next to the engine
// runs, small enough that cancellation and progress remain responsive
// on full |V|² enumerations.
const DefaultShardSize = 4096

// ShardOptions configures EvaluateSharded.
type ShardOptions struct {
	// ShardSize is the number of grid cells — (deployment, model,
	// destination, attacker) quadruples — per shard; 0 means
	// DefaultShardSize. The evaluated Result is byte-identical at every
	// shard size.
	ShardSize int

	// Checkpoint, when non-empty, names a JSON-lines file that durably
	// records every completed shard (one fsync'd record each). A fresh
	// run truncates the file and writes a header binding it to this
	// exact grid.
	Checkpoint string

	// Resume makes an existing Checkpoint file's completed shards count
	// as done: they are merged from the file instead of re-evaluated,
	// and only the remaining shards run. The file's header must match
	// the grid (fingerprint, cell count, shard size) or EvaluateSharded
	// fails rather than silently mixing incompatible partials. With no
	// existing file, Resume behaves like a fresh run.
	Resume bool

	// Sink, when non-nil, observes every completed shard's partial
	// aggregate: shards resumed from the checkpoint are replayed to it
	// (in shard order) before evaluation starts, and each freshly
	// evaluated shard is delivered as it finishes, after its checkpoint
	// record (if any) is durable — so one call sees every shard of the
	// grid exactly once. Called serially; a non-nil error aborts the
	// evaluation. Fresh-shard delivery order is scheduling-dependent —
	// only the merged Result is deterministic.
	Sink func(*ShardPartial) error

	// Stats, when non-nil, accumulates dispatch and mid-walk restart
	// counters for the evaluation.
	Stats *ShardStats
}

// ShardStats reports how a sharded evaluation was planned and
// dispatched. Every shard is its own dispatch unit, and a shard whose
// first cell falls mid-walk re-runs that step from scratch, so the
// restart count is a deterministic function of the layout and the
// shards evaluated. The dispatch counters accumulate across evaluations
// sharing the struct; the planner fields describe the schedule and are
// (re)set by each evaluation.
type ShardStats struct {
	// Units is the number of dispatch units evaluated: one per shard.
	Units int `json:"units"`
	// HandoffHits is always 0: no fixed point crosses a shard boundary.
	// The field stays for readers of the stats JSON.
	HandoffHits int `json:"handoff_hits"`
	// HandoffMisses counts evaluated shards that started mid-walk on a
	// valid (attacker ≠ destination) group and so ran that step with
	// RunAttack instead of RunDelta.
	HandoffMisses int `json:"handoff_misses"`

	// ChainHeads is the number of from-scratch walk heads per (model,
	// destination, attacker) group under the planned schedule — the
	// number of trees in the signed-delta forest, the number of nested
	// chains, or the full deployment-axis length on the identity
	// schedule.
	ChainHeads int `json:"chain_heads"`
	// DeltaEdges is the number of RunDelta steps per group walk
	// (deployments minus ChainHeads; zero on the identity schedule).
	DeltaEdges int `json:"delta_edges"`
	// PredictedVolume is the planner's predicted adjacency edge-volume
	// of one group walk under its cost model: ChainHeads from-scratch
	// runs (each priced at the delta-threshold fraction of the graph's
	// total edge-volume) plus every walk step's signed delta volume,
	// capped at the from-scratch price. Comparing it against the
	// identity prediction (axis length × from-scratch price) is the
	// observable form of the planner's payoff.
	PredictedVolume int64 `json:"predicted_volume"`
}

// ShardPartial is one completed shard's exact partial aggregate: for
// each task (a (deployment, model, destination) triple, indexed as in
// the grid's task space) the shard touched, the integer happiness
// bounds summed over the shard's attackers and the number of valid
// (m ≠ d) pairs. Tasks with no valid pair in the shard are omitted.
// Partials merge positionally by task index, so adding them in any
// order reproduces the serial aggregate exactly.
type ShardPartial struct {
	Shard int   `json:"shard"`
	Tasks []int `json:"tasks,omitempty"`
	Lo    []int `json:"lo,omitempty"`
	Hi    []int `json:"hi,omitempty"`
	Pairs []int `json:"pairs,omitempty"`
}

// numShards returns the shard count for a cell space of the given size.
func numShards(cells, shardSize int) int {
	return (cells + shardSize - 1) / shardSize
}

// NumShards is the exported shard-count rule: how many shards a cell
// space of the given size is cut into (shardSize ≤ 0 means
// DefaultShardSize). Progress reporting (the service's shards_done /
// shards_total) divides by it.
func NumShards(cells, shardSize int) int {
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	return numShards(cells, shardSize)
}

// Fingerprint is a stable 64-bit digest of everything that shapes the
// grid's cell space, its scheduled order, and per-cell outcomes:
// topology size, policy variant, attack, axes (including deployment
// memberships), and — when the scheduler orders cells chain-major — a
// schedule tag. Checkpoint files embed it so a resume against a
// different grid, or against the same grid under a different shard
// layout (shard indices are meaningless across layouts), fails loudly
// instead of silently merging incompatible partials. Identity-ordered
// grids carry no tag, so their checkpoints remain interchangeable with
// every pre-scheduler release. Shard size is deliberately excluded — it
// lives in the header, and resume adopts it from there.
func (gr *Grid) fingerprint(g *asgraph.Graph, ax *axes, sched *schedule) string {
	h := fnv.New64a()
	wint := func(x int) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	wstr := func(s string) {
		wint(len(s))
		h.Write([]byte(s))
	}
	wset := func(s *asgraph.Set) {
		if s == nil {
			wint(-1)
			return
		}
		members := s.Members()
		wint(len(members))
		for _, v := range members {
			wint(int(v))
		}
	}
	wint(g.N())
	wstr(gr.LP.String())
	wstr(gr.attackName())
	if gr.PerDest {
		wint(1)
	} else {
		wint(0)
	}
	wint(len(ax.models))
	for _, m := range ax.models {
		wstr(m.String())
	}
	wint(len(ax.deps))
	for _, dp := range ax.deps {
		wstr(dp.Name)
		if dp.Dep == nil {
			wint(-1)
			continue
		}
		wset(dp.Dep.Full)
		wset(dp.Dep.Simplex)
	}
	wint(ax.na)
	for _, m := range gr.Attackers {
		wint(int(m))
	}
	wint(ax.nd)
	for _, d := range gr.Destinations {
		wint(int(d))
	}
	if sched != nil && !sched.identity() {
		if sched.plan.forest {
			// Forest layouts hash their walk structure, not just a tag:
			// the forest shape depends on the graph's adjacency degrees
			// (the planner's edge-volume cost model), which the
			// membership-only fields above do not capture — and any
			// future cost-model change moves the layout. Binding the
			// exact linearization makes every cross-layout resume a loud
			// fingerprint mismatch instead of a silent wrong-bytes merge.
			wstr("schedule:forest")
			wint(len(sched.plan.chains))
			for _, ch := range sched.plan.chains {
				wint(len(ch))
				for _, step := range ch {
					wint(step.si)
				}
			}
		} else {
			// Nested-chain layouts keep the historical tag: the plan is a
			// pure function of the memberships hashed above, so
			// pre-forest chain-major checkpoints resume unchanged.
			wstr("schedule:chain-major")
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// shardAcc is a worker's reusable per-shard task accumulator: dense
// arrays indexed by task, an epoch stamp per slot so starting a new
// shard costs O(1) instead of an O(tasks) clear, and the list of tasks
// the current shard touched. It replaces the per-shard map the partial
// builder used to allocate — a shard touches a handful of tasks out of
// a space sized once per grid, which is exactly the shape an
// epoch-stamped arena is for.
type shardAcc struct {
	lo, hi, pairs []int
	stamp         []uint32
	cur           uint32
	touched       []int
	// midWalk records that the shard started mid-walk on a valid group
	// and re-ran that step from scratch.
	midWalk bool
}

// begin readies the accumulator for a shard over a task space of the
// given size, growing the arrays only when a larger grid arrives (a
// pooled worker state outlives any one grid).
func (a *shardAcc) begin(tasks int) {
	if len(a.stamp) < tasks {
		a.lo = make([]int, tasks)
		a.hi = make([]int, tasks)
		a.pairs = make([]int, tasks)
		a.stamp = make([]uint32, tasks)
		a.cur = 0
	}
	a.cur++
	if a.cur == 0 { // stamp wrap: one honest clear every 2^32 shards
		clear(a.stamp)
		a.cur = 1
	}
	a.touched = a.touched[:0]
	a.midWalk = false
}

// add folds one cell's exact bounds into its task slot.
//
//sbgp:hotpath
func (a *shardAcc) add(ti, lo, hi int) {
	if a.stamp[ti] != a.cur {
		a.stamp[ti] = a.cur
		a.lo[ti], a.hi[ti], a.pairs[ti] = 0, 0, 0
		a.touched = append(a.touched, ti)
	}
	a.lo[ti] += lo
	a.hi[ti] += hi
	a.pairs[ti]++
}

// evaluateShardPartial computes the exact partial aggregate of the
// scheduled positions [start, end) through the unified scheduler walk
// (scheduler.go), listing the touched tasks in ascending order so the
// record bytes are independent of the walk order. With reuse set the
// returned partial is the worker-owned scratch, valid only until the
// worker's next shard — callers that retain partials past the commit
// must pass reuse = false for a freshly allocated one. It reports
// ok = false if ctx was cancelled or stop was set, in which case the
// (incomplete) partial must be discarded.
//
//sbgp:hotpath
func (gr *Grid) evaluateShardPartial(ctx context.Context, stop *atomic.Bool, g *asgraph.Graph, ws *workerState, sched *schedule, shard, start, end int, reuse bool) (p *ShardPartial, ok bool) {
	a := &ws.acc
	a.begin(sched.ax.tasks)
	if !gr.evaluateRange(ctx, stop, g, ws, sched, start, end) {
		return nil, false
	}
	slices.Sort(a.touched)
	n := len(a.touched)
	if reuse {
		p = &ws.partial
		p.Tasks, p.Lo, p.Hi, p.Pairs = p.Tasks[:0], p.Lo[:0], p.Hi[:0], p.Pairs[:0]
	} else {
		//sbgplint:allow hotalloc cold branch by contract: reuse=false is the retain-past-commit path and must allocate
		p = &ShardPartial{
			Tasks: make([]int, 0, n),
			Lo:    make([]int, 0, n),
			Hi:    make([]int, 0, n),
			Pairs: make([]int, 0, n),
		}
	}
	p.Shard = shard
	for _, ti := range a.touched {
		p.Tasks = append(p.Tasks, ti)
		p.Lo = append(p.Lo, a.lo[ti])
		p.Hi = append(p.Hi, a.hi[ti])
		p.Pairs = append(p.Pairs, a.pairs[ti])
	}
	return p, true
}

// EvaluateSharded evaluates the grid like EvaluateContext, but
// partitioned into fixed-size shards of the *scheduled* (deployment ×
// model × destination × attacker) cell space: incremental grids order
// the cells chain-major before the shards are cut, so a RunDelta chain
// occupies consecutive shards (a shard starting mid-walk re-runs one
// step from scratch) instead of scattering one cell into every shard.
// Each shard is dispatched to the worker pool on its own, with
// per-worker engine reuse; each
// completed shard's exact integer partial is streamed to the checkpoint
// file and sink, and all partials are merged positionally, so the
// Result is byte-identical to EvaluateContext at every worker count and
// shard size.
//
// With a Checkpoint configured, every completed shard is durably
// recorded (fsync per record). Cancelling ctx aborts promptly with
// (nil, ctx.Err()) — the checkpoint keeps the shards that finished —
// and a later call with Resume set skips exactly those shards and
// reproduces the uninterrupted result.
func (gr *Grid) EvaluateSharded(ctx context.Context, g *asgraph.Graph, opts ShardOptions) (*Result, error) {
	ax, err := gr.expand()
	if err != nil {
		return nil, err
	}
	sched := newSchedule(gr, ax, g)
	size := opts.ShardSize
	if size <= 0 {
		size = DefaultShardSize
	}
	var cp *checkpointFile
	if opts.Checkpoint != "" {
		// A resumed checkpoint dictates the shard size (shard indices
		// are meaningless under any other partition); an explicit
		// conflicting ShardSize is rejected inside openCheckpoint, and
		// a file written under a different schedule (identity vs
		// chain-major) is rejected by the fingerprint.
		cp, size, err = openCheckpoint(opts.Checkpoint, gr.fingerprint(g, ax, sched),
			ax.cells, ax.tasks, opts.ShardSize, opts.Resume)
		if err != nil {
			return nil, err
		}
		defer cp.close()
	}
	nshards := numShards(ax.cells, size)

	// Fold each partial into the task accumulator the moment it
	// commits, instead of retaining every partial until the end:
	// positional integer addition is associative and commutative, so
	// any completion order — including partials resumed from a
	// checkpoint — reproduces the serial accumulator byte for byte,
	// and nothing holds O(shards) memory. Not retaining partials is
	// also what lets the workers hand out their reusable scratch
	// partial when no Sink is watching.
	acc := make([]destAcc, ax.tasks)
	done := make([]bool, nshards)
	if cp != nil {
		// Replay checkpointed shards in shard order so the sink
		// observes the whole grid, not just the fresh remainder.
		slices.SortFunc(cp.resumed, func(a, b *ShardPartial) int { return a.Shard - b.Shard })
		for _, p := range cp.resumed {
			if opts.Sink != nil {
				if err := opts.Sink(p); err != nil {
					return nil, err
				}
			}
			fold(acc, p)
			done[p.Shard] = true
		}
	}

	pending := make([]int, 0, nshards)
	for s := 0; s < nshards; s++ {
		if !done[s] {
			pending = append(pending, s)
		}
	}

	// The dispatcher (plan.go) runs each pending shard as its own unit
	// and commits each completed partial — checkpoint record
	// first, then sink, then the fold — exactly as the distributed range
	// evaluator does. The checkpoint writer marshals immediately and the
	// fold copies the counts out, so the partial may be worker-owned
	// scratch unless a Sink (which may retain what it sees) is present.
	err = gr.newDispatch(g, sched, size, pending, opts.Sink == nil, opts.Stats,
		func(p *ShardPartial) error {
			if cp != nil {
				if err := cp.append(p); err != nil {
					return err
				}
			}
			if opts.Sink != nil {
				if err := opts.Sink(p); err != nil {
					return err
				}
			}
			fold(acc, p)
			done[p.Shard] = true
			return nil
		}).run(ctx)
	if err != nil {
		return nil, err
	}

	for s, ok := range done {
		if !ok {
			return nil, fmt.Errorf("sweep: internal error: shard %d missing after evaluation", s)
		}
	}
	return gr.reduce(g, ax, acc), nil
}
