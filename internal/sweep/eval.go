package sweep

import (
	"context"

	"sbgp/internal/asgraph"
)

// Evaluation is a prepared, reusable flat evaluation of one grid on one
// graph: the expanded axes, the schedule, the dispatch, the task
// accumulator, a private EnginePool and the Result are all built once,
// so repeated Run calls — the shape of a resident service answering the
// same query, or a benchmark's steady state — allocate nothing per
// evaluation on any grid (PerDest grids excepted; their per-destination
// series are handed out fresh each Run).
//
// An Evaluation is not safe for concurrent use: Run reuses the same
// accumulator and Result, and the returned Result is owned by the
// Evaluation, valid only until the next Run. Callers that need to keep
// a Result across Runs must copy it. One-shot callers should keep using
// Grid.Evaluate.
type Evaluation struct {
	gr  Grid // private copy holding the private pool; the caller's Grid stays untouched
	g   *asgraph.Graph
	ax  *axes
	acc []destAcc
	d   *dispatch
	res Result
}

// NewEvaluation validates the grid on g and prepares a reusable
// evaluation of it.
func (gr *Grid) NewEvaluation(g *asgraph.Graph) (*Evaluation, error) {
	ax, err := gr.expand()
	if err != nil {
		return nil, err
	}
	ev := &Evaluation{gr: *gr, g: g, ax: ax, acc: make([]destAcc, ax.tasks)}
	// The pool keeps the worker states — engines and scratch — warm
	// between Runs; every Run's loans are released when it returns.
	ev.gr.Pool = NewEnginePool()
	ev.d = ev.gr.flatDispatch(g, newSchedule(&ev.gr, ax, g), ev.acc)
	return ev, nil
}

// Run evaluates the grid, exactly like Grid.EvaluateContext, into the
// Evaluation's reusable Result. The Result is valid until the next Run.
// Cancelling ctx aborts promptly with (nil, ctx.Err()).
func (ev *Evaluation) Run(ctx context.Context) (*Result, error) {
	clear(ev.acc)
	err := ev.d.run(ctx)
	ev.gr.Pool.Release()
	if err != nil {
		return nil, err
	}
	ev.gr.reduceInto(ev.g, ev.ax, ev.acc, &ev.res)
	return &ev.res, nil
}
