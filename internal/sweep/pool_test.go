package sweep

import (
	"context"
	"testing"

	"sbgp/internal/topogen"
)

// TestEnginePoolOneEnginePerWorker: a two-worker sharded evaluation of a
// three-model chained grid through an EnginePool leaves exactly two
// worker states in the pool, and each holds one engine, built for the
// evaluated graph, that served every model.
func TestEnginePoolOneEnginePerWorker(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 23})
	gr := chainedGrid(g, IncrementalAuto)
	gr.Workers = 2
	gr.Pool = NewEnginePool()
	ax, err := gr.expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(ax.models) != 3 || newSchedule(gr, ax, g).identity() {
		t.Fatalf("test grid must be chained over 3 models (models=%d)", len(ax.models))
	}
	if _, err := gr.EvaluateSharded(context.Background(), g, ShardOptions{ShardSize: 7}); err != nil {
		t.Fatal(err)
	}
	gr.Pool.Release()
	if n := gr.Pool.Size(); n != 2 {
		t.Fatalf("pool holds %d worker states after a 2-worker evaluation, want 2", n)
	}
	for i, ws := range gr.Pool.free {
		if ws.eng == nil || ws.eng.Graph() != g {
			t.Errorf("worker state %d: engine %v, want one engine on the evaluated graph", i, ws.eng)
		}
	}
}
