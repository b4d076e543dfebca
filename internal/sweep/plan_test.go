package sweep

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"sbgp/internal/topogen"
)

// TestDispatchRerunAfterCommitError: a dispatch is reused across runs
// (a prepared Evaluation keeps one), so a failed commit must not leak
// into the next run — its error and stop flag are reset, and the rerun
// commits every range and reproduces the one-shot result.
func TestDispatchRerunAfterCommitError(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 23})
	gr := chainedGrid(g, IncrementalAuto)
	gr.Workers = 2
	var want bytes.Buffer
	if err := gr.MustEvaluate(g).WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	ax, err := gr.expand()
	if err != nil {
		t.Fatal(err)
	}
	acc := make([]destAcc, ax.tasks)
	d := gr.flatDispatch(g, newSchedule(gr, ax, g), acc)
	boom := errors.New("commit failed")
	fail := true
	foldCommit := d.commit
	d.commit = func(p *ShardPartial) error {
		if fail {
			return boom
		}
		return foldCommit(p)
	}
	if err := d.run(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("failing commit returned %v, want %v", err, boom)
	}
	fail = false
	clear(acc)
	if err := d.run(context.Background()); err != nil {
		t.Fatalf("rerun after a failed commit: %v", err)
	}
	var got bytes.Buffer
	if err := gr.reduce(g, ax, acc).WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("rerun after a failed commit diverges from Evaluate")
	}
}

// TestPlanShardsUnits pins the planning contract: the layout geometry
// is self-consistent, the units tile the shard space exactly, every
// unit boundary is handoff-free (a lease cut there splits no chain),
// and every boundary interior to a unit is not (cutting there would).
func TestPlanShardsUnits(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 23})
	for _, size := range []int{1, 3, 7} {
		gr := chainedGrid(g, IncrementalAuto)
		l, units, err := gr.PlanShards(g, size)
		if err != nil {
			t.Fatal(err)
		}
		ax, err := gr.expand()
		if err != nil {
			t.Fatal(err)
		}
		if l.Cells != ax.cells || l.Tasks != ax.tasks || l.ShardSize != size || l.Shards != numShards(ax.cells, size) {
			t.Fatalf("size %d: layout %+v inconsistent with grid (cells=%d tasks=%d)", size, l, ax.cells, ax.tasks)
		}
		sched := newSchedule(gr, ax, g)
		next := 0
		for _, u := range units {
			if u.Start != next || u.End <= u.Start {
				t.Fatalf("size %d: unit %+v does not continue tiling at %d", size, u, next)
			}
			if !sched.handoffFree(u.Start * size) {
				t.Errorf("size %d: unit boundary at shard %d cuts a chain", size, u.Start)
			}
			for s := u.Start + 1; s < u.End; s++ {
				if sched.handoffFree(s * size) {
					t.Errorf("size %d: interior boundary at shard %d is handoff-free (unit should have split)", size, s)
				}
			}
			next = u.End
		}
		if next != l.Shards {
			t.Fatalf("size %d: units end at %d, want %d", size, next, l.Shards)
		}
	}
}

// TestShardRangeMergeEquivalence is the distributed split in
// miniature: three disjoint worker ranges evaluated independently
// (each with its own engine state) and merged must reproduce the
// single-box sharded evaluation — itself pinned to the flat evaluator
// — byte for byte, with zero handoff misses inside each range.
func TestShardRangeMergeEquivalence(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 29})
	var want bytes.Buffer
	if err := chainedGrid(g, IncrementalOff).MustEvaluate(g).WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{2, 5} {
		gr := chainedGrid(g, IncrementalAuto)
		l, units, err := gr.PlanShards(g, size)
		if err != nil {
			t.Fatal(err)
		}
		if len(units) < 3 {
			t.Fatalf("size %d: only %d units, test wants ≥3 worker ranges", size, len(units))
		}
		// Cut the unit list into three contiguous worker ranges on unit
		// boundaries, like a coordinator leasing thirds of the grid.
		cuts := []int{0, len(units) / 3, 2 * len(units) / 3, len(units)}
		var partials []*ShardPartial
		for w := 0; w < 3; w++ {
			r := ShardRange{Start: units[cuts[w]].Start, End: units[cuts[w+1]-1].End}
			// Each "worker" is a fresh grid value: no shared engine
			// state, as across machines.
			wgr := chainedGrid(g, IncrementalAuto)
			var stats ShardStats
			err := wgr.EvaluateShardRange(context.Background(), g, l, r, RangeOptions{
				Sink: func(p *ShardPartial) error {
					partials = append(partials, p)
					return nil
				},
				Stats: &stats,
			})
			if err != nil {
				t.Fatal(err)
			}
			if stats.HandoffMisses != 0 {
				t.Errorf("size %d worker %d: %d handoff misses inside a leased range", size, w, stats.HandoffMisses)
			}
		}
		res, err := gr.MergePartials(g, l, partials)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := res.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("size %d: 3-worker range evaluation diverges from flat evaluation", size)
		}
	}
}

// TestEvaluateShardRangeForeignLayout: a layout minted by a different
// grid (here a different-sized topology — the fingerprint binds N plus
// every axis membership; the topology's edge set itself is bound by the
// job spec that names it, not the fingerprint) must be refused with a
// fingerprint mismatch, not evaluated into meaningless shard indices;
// and malformed ranges are rejected.
func TestEvaluateShardRangeForeignLayout(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 29})
	other, _ := topogen.MustGenerate(topogen.Params{N: 210, Seed: 29})
	gr := chainedGrid(g, IncrementalAuto)
	foreign, _, err := chainedGrid(other, IncrementalAuto).PlanShards(other, 5)
	if err != nil {
		t.Fatal(err)
	}
	err = gr.EvaluateShardRange(context.Background(), g, foreign, ShardRange{Start: 0, End: 1}, RangeOptions{})
	if err == nil {
		t.Fatal("foreign layout evaluated without error")
	}
	if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("foreign layout failed with %v, want a fingerprint mismatch", err)
	}
	if _, err := gr.MergePartials(g, foreign, nil); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("MergePartials accepted a foreign layout (err %v)", err)
	}

	l, _, err := gr.PlanShards(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []ShardRange{{Start: -1, End: 1}, {Start: 0, End: l.Shards + 1}, {Start: 2, End: 2}} {
		if err := gr.EvaluateShardRange(context.Background(), g, l, r, RangeOptions{}); err == nil {
			t.Errorf("range %+v accepted, want an error", r)
		}
	}
}

// TestMergePartialsErrors: duplicates and gaps are loud errors — the
// coordinator deduplicates by shard index before merging, and a merge
// over an incomplete set would silently undercount.
func TestMergePartialsErrors(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 29})
	gr := chainedGrid(g, IncrementalAuto)
	l, _, err := gr.PlanShards(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	var partials []*ShardPartial
	err = gr.EvaluateShardRange(context.Background(), g, l, ShardRange{Start: 0, End: l.Shards}, RangeOptions{
		Sink: func(p *ShardPartial) error { partials = append(partials, p); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gr.MergePartials(g, l, partials[:len(partials)-1]); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("merge of incomplete set: err = %v, want missing-shard error", err)
	}
	if _, err := gr.MergePartials(g, l, append(partials, partials[0])); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("merge with duplicate: err = %v, want duplicate error", err)
	}
}

// TestCheckpointWriterResumeInterop proves the coordinator's writer and
// the single-box evaluator speak the same on-disk dialect: shard
// partials evaluated via EvaluateShardRange and ingested through a
// CheckpointWriter form a checkpoint that EvaluateSharded resumes,
// finishing only the missing shards and landing on the flat bytes.
func TestCheckpointWriterResumeInterop(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 29})
	var want bytes.Buffer
	if err := chainedGrid(g, IncrementalOff).MustEvaluate(g).WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	gr := chainedGrid(g, IncrementalAuto)
	const size = 5
	l, units, err := gr.PlanShards(g, size)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "interop.ckpt")
	w, err := OpenCheckpointWriter(path, l, false)
	if err != nil {
		t.Fatal(err)
	}
	// "Remote" evaluation of the first half of the units, ingested
	// through the writer.
	half := ShardRange{Start: 0, End: units[len(units)/2].End}
	err = gr.EvaluateShardRange(context.Background(), g, l, half, RangeOptions{
		Sink: func(p *ShardPartial) error {
			if added, err := w.Add(p); err != nil || !added {
				t.Errorf("ingest shard %d = (%v, %v)", p.Shard, added, err)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The single-box evaluator resumes the writer's file: only the
	// missing shards run.
	fresh := 0
	res, err := gr.EvaluateSharded(context.Background(), g, ShardOptions{
		ShardSize:  size,
		Checkpoint: path,
		Resume:     true,
		Sink: func(p *ShardPartial) error {
			if p.Shard >= half.End {
				fresh++
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if wantFresh := l.Shards - half.Len(); fresh != wantFresh {
		t.Errorf("resume evaluated %d fresh shards, want %d", fresh, wantFresh)
	}
	var got bytes.Buffer
	if err := res.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("writer-fed resume diverges from flat evaluation")
	}
}
