// Package sweep evaluates declarative (security model × deployment ×
// attacker × destination) grids — the aggregate the paper computed on a
// BlueGene supercomputer (Appendix H) — and serializes the results.
//
// A Grid names the four axes once; Evaluate expands the full cross
// product, fans the independent (deployment, model, destination) tasks
// out over the runner's chunked worker pool, and folds the integer
// happiness counts back together in axis order. Because every cell is
// accumulated positionally and reduced in a fixed order, the same grid
// produces byte-identical results at any worker count.
//
// The grid layer is what cmd/experiments and cmd/bgpsim build on for
// their batch modes, and internal/exp uses it to evaluate whole rollout
// schedules in one parallel pass instead of one harness call per
// (step, model) pair.
package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/policy"
	"sbgp/internal/runner"
)

// IncrementalMode is the tri-state scheduling override for a grid's
// evaluation order. The default, IncrementalAuto, uses chain-major
// incremental scheduling whenever the planner links any two deployments
// by a signed delta — nested chains and signed-delta forests over
// arbitrary, even pairwise-incomparable, axes alike (results are
// byte-identical either way, so there is no correctness reason to opt
// out); IncrementalOff restores the legacy deployment-outermost order,
// and IncrementalOn pins the incremental scheduler explicitly — today
// it behaves exactly like Auto and exists so callers and scripts can
// state their intent against future changes of the default.
type IncrementalMode int

const (
	// IncrementalAuto (the zero value): chain-major scheduling with
	// RunDelta reuse whenever the planner can link deployments cheaper
	// than re-running them from scratch — nested axes walk grow-only
	// chains, incomparable ones a signed-delta forest; only axes with no
	// linkable pair (a singleton, or every pairwise delta at least a
	// from-scratch run) degrade to the legacy order.
	IncrementalAuto IncrementalMode = iota
	// IncrementalOn pins incremental scheduling (currently identical to
	// IncrementalAuto).
	IncrementalOn
	// IncrementalOff restores the legacy schedule: every cell runs from
	// scratch in deployment-outermost order.
	IncrementalOff
)

// enabled reports whether the mode permits incremental scheduling.
func (m IncrementalMode) enabled() bool { return m != IncrementalOff }

// String returns the flag spelling of the mode.
func (m IncrementalMode) String() string {
	switch m {
	case IncrementalOn:
		return "on"
	case IncrementalOff:
		return "off"
	default:
		return "auto"
	}
}

// ParseIncrementalMode resolves an -incremental flag value: "auto" (or
// empty), "on" (aliases "true", "1", "yes"), or "off" (aliases "false",
// "0", "no"). The boolean aliases keep pre-tri-state command lines
// working. An unrecognized value yields an error naming the offending
// token and every valid spelling.
func ParseIncrementalMode(s string) (IncrementalMode, error) {
	switch strings.ToLower(s) {
	case "", "auto":
		return IncrementalAuto, nil
	case "on", "true", "1", "yes":
		return IncrementalOn, nil
	case "off", "false", "0", "no":
		return IncrementalOff, nil
	}
	return 0, fmt.Errorf(`sweep: unknown incremental mode %q (valid modes are "auto" (alias ""), "on" (aliases "true", "1", "yes"), or "off" (aliases "false", "0", "no"))`, s)
}

// Deployment is one named point on the deployment axis. A nil Dep is
// the baseline S = ∅ (RPKI origin authentication only).
type Deployment struct {
	Name string
	Dep  *core.Deployment
}

// Grid declares a full evaluation grid. Zero-valued axes get defaults:
// all three security models, and the single baseline deployment.
// Attackers and Destinations must be non-empty.
type Grid struct {
	Models       []policy.Model
	LP           policy.LocalPref
	Deployments  []Deployment
	Attackers    []asgraph.AS
	Destinations []asgraph.AS

	// PerDest adds the per-destination metric series to every cell
	// (the sequences plotted in Figures 9, 10, and 12).
	PerDest bool

	// Attack is the threat-model strategy every cell runs under; nil is
	// the default one-hop "m, d" hijack of Section 3.1.
	Attack core.Attack

	// Incremental selects the scheduling mode. The zero value,
	// IncrementalAuto, orders the cell space chain-major: the
	// deployment axis is covered by delta walks — nested chains, or a
	// minimum-cost signed-delta forest when the axis holds incomparable
	// deployments (see chain.go) — and each (model, destination,
	// attacker) triple walks its chain with Engine.RunDelta replaying
	// each step's signed delta onto the previous fixed point —
	// byte-identical results, substantially faster for rollout-shaped
	// and incomparable axes alike, and an automatic degradation to the
	// legacy order when no two deployments link. IncrementalOff forces
	// the legacy order.
	Incremental IncrementalMode

	// Workers is the worker-pool size; 0 means GOMAXPROCS.
	Workers int

	// Pool, when non-nil, draws per-worker engine state from an
	// EnginePool instead of constructing it fresh — the warm-engine hook
	// of the resident service. The pool must belong to this grid's
	// (graph, LP) pair; see EnginePool. Results are identical with or
	// without a pool.
	Pool *EnginePool
}

// Cell is the aggregate for one (deployment, model) pair over all
// (attacker, destination) pairs of the grid.
type Cell struct {
	Deployment string        `json:"deployment"`
	Model      string        `json:"model"`
	SecureASes int           `json:"secure_ases"`
	Metric     runner.Metric `json:"metric"`
	// PerDest is indexed like Grid.Destinations; only present when the
	// grid requested it.
	PerDest []runner.Metric `json:"per_dest,omitempty"`
}

// Result is a fully evaluated grid.
type Result struct {
	GraphN int    `json:"graph_n"`
	LP     string `json:"lp"`
	// Attack names a non-default threat model; omitted for the one-hop
	// hijack so default results stay byte-identical across versions.
	Attack       string `json:"attack,omitempty"`
	Attackers    int    `json:"attackers"`
	Destinations int    `json:"destinations"`
	// Cells is ordered deployment-major, then model, matching the
	// declaration order of the grid's axes.
	Cells []Cell `json:"cells"`
}

// Cell returns the cell for a (deployment name, model) pair, or nil.
func (r *Result) Cell(deployment string, model policy.Model) *Cell {
	name := model.String()
	for i := range r.Cells {
		if r.Cells[i].Deployment == deployment && r.Cells[i].Model == name {
			return &r.Cells[i]
		}
	}
	return nil
}

// WriteJSON serializes the result, indented, with a trailing newline.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// destAcc is the integer happiness count for one task; keeping the
// per-destination sums exact makes the reduction independent of both
// worker count and summation order.
type destAcc struct {
	lo, hi, pairs int
}

// axes is a grid's validated, defaulted expansion: the concrete model
// and deployment lists plus the dimensions of the task and cell spaces.
// Tasks are (deployment, model, destination) triples in declaration
// order; cells append the attacker as the innermost axis, so cell
// ci = task*na + attackerIndex. Every evaluator indexes the same
// spaces, which is what makes their results byte-identical.
type axes struct {
	models []policy.Model
	deps   []Deployment
	nm, nd int
	na     int
	tasks  int // len(deps) * nm * nd
	cells  int // tasks * na
}

// decodeTask splits a flattened task index into its (deployment,
// model, destination) coordinates — the single definition of the task
// layout, shared by every evaluator (flat, chained, and both sharded
// paths) so the accumulator indexing can never drift between them.
// The chained evaluators reuse it with the chain index in the first
// (outermost) position.
func (ax *axes) decodeTask(ti int) (si, mi, di int) {
	di = ti % ax.nd
	mi = (ti / ax.nd) % ax.nm
	si = ti / (ax.nd * ax.nm)
	return si, mi, di
}

// expand validates the grid and materializes its axes.
func (gr *Grid) expand() (*axes, error) {
	models := gr.Models
	if len(models) == 0 {
		models = policy.Models[:]
	}
	deps := gr.Deployments
	if len(deps) == 0 {
		deps = []Deployment{{Name: "baseline"}}
	}
	if len(gr.Attackers) == 0 || len(gr.Destinations) == 0 {
		return nil, fmt.Errorf("sweep: grid needs attackers and destinations (have %d, %d)",
			len(gr.Attackers), len(gr.Destinations))
	}
	// Linear dedup scans: the model axis is at most NumModels long and
	// deployment axes are short enough that the quadratic scan is
	// cheaper than building throwaway maps on every expand — and expand
	// runs once per evaluation, fingerprint, and layout check.
	for i, dp := range deps {
		if dp.Name == "" {
			return nil, fmt.Errorf("sweep: deployment with empty name")
		}
		for j := 0; j < i; j++ {
			if deps[j].Name == dp.Name {
				return nil, fmt.Errorf("sweep: duplicate deployment name %q", dp.Name)
			}
		}
	}
	for i, m := range models {
		for j := 0; j < i; j++ {
			if models[j] == m {
				return nil, fmt.Errorf("sweep: duplicate model %v", m)
			}
		}
	}
	ax := &axes{
		models: models, deps: deps,
		nm: len(models), nd: len(gr.Destinations), na: len(gr.Attackers),
	}
	ax.tasks = len(deps) * ax.nm * ax.nd
	ax.cells = ax.tasks * ax.na
	return ax, nil
}

// attackName is the grid's threat-model name with the nil default
// resolved.
func (gr *Grid) attackName() string {
	if gr.Attack == nil {
		return core.DefaultAttack.Name()
	}
	return gr.Attack.Name()
}

// workerState is the per-worker scratch of grid evaluation: one lazily
// built engine, switched between security models with SetModel, plus
// the dispatcher's reusable accumulator and partial. The engine's epoch
// reset makes reuse across deployments, models and destinations cheap,
// and the shard scratch makes the steady-state loop allocation-free —
// an EnginePool recycles the whole state, engine and scratch alike.
type workerState struct {
	eng *core.Engine

	// acc is the per-shard task accumulator (epoch-stamped, so a new
	// shard needs no O(tasks) clear).
	acc shardAcc

	// partial is the reusable ShardPartial the commit path hands out
	// when the caller retains nothing past the commit (see dispatch's
	// reuse contract).
	partial ShardPartial
}

// engine returns the worker's engine set to model. Every walk starts
// with RunAttack, so no RunDelta ever spans a model switch.
func (ws *workerState) engine(g *asgraph.Graph, model policy.Model, lp policy.LocalPref) *core.Engine {
	if ws.eng == nil {
		ws.eng = core.NewEngineLP(g, model, lp)
	} else {
		ws.eng.SetModel(model)
	}
	return ws.eng
}

// newWorkerState is the dispatcher's worker-state factory: fresh
// scratch, or a recycled one when the grid carries an EnginePool.
func (gr *Grid) newWorkerState() *workerState {
	if gr.Pool != nil {
		return gr.Pool.get()
	}
	return &workerState{}
}

// CellCount validates the grid and returns the size of its flattened
// (deployment × model × destination × attacker) cell space — with
// NumShards, the denominator of sharded progress reporting.
func (gr *Grid) CellCount() (int, error) {
	ax, err := gr.expand()
	if err != nil {
		return 0, err
	}
	return ax.cells, nil
}

// Evaluate expands and evaluates the grid on g.
func (gr *Grid) Evaluate(g *asgraph.Graph) (*Result, error) {
	return gr.EvaluateContext(context.Background(), g)
}

// EvaluateContext is Evaluate under a context. Cancelling ctx aborts
// the grid promptly — in-flight cells finish their current engine run,
// undispatched cells never start — and EvaluateContext returns
// (nil, ctx.Err()); partial aggregates are discarded, never returned.
func (gr *Grid) EvaluateContext(ctx context.Context, g *asgraph.Graph) (*Result, error) {
	ax, err := gr.expand()
	if err != nil {
		return nil, err
	}
	// The unified scheduler (scheduler.go) orders the cell space —
	// chain-major for incremental grids, identity otherwise — and the
	// dispatcher (plan.go) runs one scheduled range per unit. The
	// integer counts land in the same positions as the legacy
	// scheduling — byte-identical results.
	acc := make([]destAcc, ax.tasks)
	if err := gr.flatDispatch(g, newSchedule(gr, ax, g), acc).run(ctx); err != nil {
		return nil, err
	}
	return gr.reduce(g, ax, acc), nil
}

// reduce folds the exact per-task integer counts into a Result in axis
// declaration order. Because the counts are integers and the fold order
// is fixed, the result is independent of how the tasks were scheduled —
// across worker counts, shard sizes, and checkpoint resumes alike.
func (gr *Grid) reduce(g *asgraph.Graph, ax *axes, acc []destAcc) *Result {
	res := &Result{}
	gr.reduceInto(g, ax, acc, res)
	return res
}

// reduceInto is reduce writing into a caller-owned Result, reusing its
// cell slice's capacity — the allocation-free steady state of a
// prepared Evaluation. PerDest series are still allocated fresh per
// call (they alias into the returned cells, so reuse would hand out
// slices a previous caller may still hold).
func (gr *Grid) reduceInto(g *asgraph.Graph, ax *axes, acc []destAcc, res *Result) {
	res.GraphN = g.N()
	res.LP = gr.LP.String()
	res.Attack = ""
	res.Attackers = ax.na
	res.Destinations = ax.nd
	if res.Cells == nil {
		res.Cells = make([]Cell, 0, len(ax.deps)*ax.nm)
	} else {
		res.Cells = res.Cells[:0]
	}
	if gr.Attack != nil && gr.Attack.Name() != core.DefaultAttack.Name() {
		res.Attack = gr.Attack.Name()
	}
	sources := float64(g.N() - 2)
	for si, dp := range ax.deps {
		for mi, model := range ax.models {
			cell := Cell{
				Deployment: dp.Name,
				Model:      model.String(),
				SecureASes: dp.Dep.SecureCount(),
			}
			if gr.PerDest {
				cell.PerDest = make([]runner.Metric, ax.nd)
			}
			var lo, hi float64
			pairs := 0
			for di := 0; di < ax.nd; di++ {
				a := acc[(si*ax.nm+mi)*ax.nd+di]
				lo += float64(a.lo)
				hi += float64(a.hi)
				pairs += a.pairs
				if gr.PerDest && a.pairs > 0 {
					cell.PerDest[di] = runner.Metric{
						Lo:    float64(a.lo) / (float64(a.pairs) * sources),
						Hi:    float64(a.hi) / (float64(a.pairs) * sources),
						Pairs: a.pairs,
					}
				}
			}
			if pairs > 0 {
				cell.Metric = runner.Metric{
					Lo:    lo / (float64(pairs) * sources),
					Hi:    hi / (float64(pairs) * sources),
					Pairs: pairs,
				}
			}
			res.Cells = append(res.Cells, cell)
		}
	}
}

// MustEvaluate is Evaluate for statically well-formed grids.
func (gr *Grid) MustEvaluate(g *asgraph.Graph) *Result {
	res, err := gr.Evaluate(g)
	if err != nil {
		panic(err)
	}
	return res
}
