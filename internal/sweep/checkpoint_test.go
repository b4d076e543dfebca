package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sbgp/internal/topogen"
)

// TestOpenCheckpointTruncateReopen unit-tests the torn-tail recovery
// path in isolation: openCheckpoint must truncate the torn bytes from
// the file itself (not just ignore them in memory) and sync the
// truncation, so records appended afterwards form valid lines and every
// later resume parses the whole file.
func TestOpenCheckpointTruncateReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ckpt")

	const fp = "0123456789abcdef"
	hdr, _ := json.Marshal(checkpointHeader{
		V: checkpointVersion, Kind: recordHeader, Fingerprint: fp,
		Cells: 40, ShardSize: 8, Shards: 5,
	})
	s0, _ := json.Marshal(shardRecord{Kind: recordShard, ShardPartial: &ShardPartial{
		Shard: 0, Tasks: []int{0, 1}, Lo: []int{3, 4}, Hi: []int{3, 5}, Pairs: []int{2, 2},
	}})
	s1, _ := json.Marshal(shardRecord{Kind: recordShard, ShardPartial: &ShardPartial{
		Shard: 2, Tasks: []int{3}, Lo: []int{1}, Hi: []int{2}, Pairs: []int{1},
	}})
	var file bytes.Buffer
	for _, line := range [][]byte{hdr, s0, s1} {
		file.Write(line)
		file.WriteByte('\n')
	}
	complete := file.Len()
	file.WriteString(`{"kind":"shard","shard":4,"tasks":[`) // torn final append
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	cp, size, err := openCheckpoint(path, fp, 40, 10, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if size != 8 {
		t.Errorf("resume adopted shard size %d, want the file's 8", size)
	}
	if len(cp.resumed) != 2 {
		t.Errorf("resume loaded %d partials, want 2", len(cp.resumed))
	}
	// The torn tail must be gone from the file itself before anything
	// is appended.
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(complete) {
		t.Errorf("file size after reopen = %v (err %v), want %d (torn tail truncated)", fi.Size(), err, complete)
	}

	// A record appended post-truncation starts on a fresh line.
	if err := cp.append(&ShardPartial{Shard: 4, Tasks: []int{9}, Lo: []int{1}, Hi: []int{1}, Pairs: []int{1}}); err != nil {
		t.Fatal(err)
	}
	if err := cp.close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	partials, _, err := parseCheckpoint(data, fp, 40, 10, 0)
	if err != nil {
		t.Fatalf("file unparseable after truncate-reopen-append: %v", err)
	}
	if len(partials) != 3 {
		t.Errorf("parsed %d partials after append, want 3", len(partials))
	}
	for _, p := range partials {
		if p.Shard == 4 && (len(p.Tasks) != 1 || p.Tasks[0] != 9) {
			t.Errorf("appended record corrupted: %+v", p)
		}
	}

	// A second resume of the same file sees all three records and a
	// clean tail.
	cp2, _, err := openCheckpoint(path, fp, 40, 10, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.close()
	if len(cp2.resumed) != 3 {
		t.Errorf("second resume loaded %d partials, want 3", len(cp2.resumed))
	}
}

// TestParseCheckpointOutOfOrderDuplicates pins the format-level
// ingestion contract the distributed reconcile path leans on: shard
// records may land in any order and may repeat (a worker re-sending
// after a lost ack), and parsing keeps the first record per shard.
func TestParseCheckpointOutOfOrderDuplicates(t *testing.T) {
	const fp = "0123456789abcdef"
	hdr, _ := json.Marshal(checkpointHeader{
		V: checkpointVersion, Kind: recordHeader, Fingerprint: fp,
		Cells: 40, ShardSize: 8, Shards: 5,
	})
	rec := func(shard, lo int) []byte {
		b, _ := json.Marshal(shardRecord{Kind: recordShard, ShardPartial: &ShardPartial{
			Shard: shard, Tasks: []int{shard}, Lo: []int{lo}, Hi: []int{lo}, Pairs: []int{1},
		}})
		return b
	}
	var file bytes.Buffer
	// Out of order, with shard 3 written twice (identical contents are
	// the only thing a correct worker can produce; first wins either
	// way).
	for _, line := range [][]byte{hdr, rec(3, 7), rec(0, 1), rec(4, 9), rec(3, 7), rec(1, 2)} {
		file.Write(line)
		file.WriteByte('\n')
	}
	partials, size, err := parseCheckpoint(file.Bytes(), fp, 40, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if size != 8 {
		t.Errorf("adopted shard size %d, want 8", size)
	}
	if len(partials) != 4 {
		t.Fatalf("parsed %d distinct partials, want 4", len(partials))
	}
	seen := map[int]bool{}
	for _, p := range partials {
		if seen[p.Shard] {
			t.Errorf("shard %d surfaced twice", p.Shard)
		}
		seen[p.Shard] = true
	}
	for _, s := range []int{0, 1, 3, 4} {
		if !seen[s] {
			t.Errorf("shard %d missing from parse", s)
		}
	}
}

// TestCheckpointWriterIngestion exercises the coordinator-facing
// ingestion API: out-of-order Adds, idempotent duplicates (no second
// disk record), validation failures that leave the writer untouched,
// compact have-range advertisement, and resume across reopen.
func TestCheckpointWriterIngestion(t *testing.T) {
	layout := &Layout{Fingerprint: "0123456789abcdef", Cells: 40, Tasks: 10, ShardSize: 8, Shards: 5}
	path := filepath.Join(t.TempDir(), "writer.ckpt")
	w, err := OpenCheckpointWriter(path, layout, false)
	if err != nil {
		t.Fatal(err)
	}
	part := func(shard int) *ShardPartial {
		return &ShardPartial{Shard: shard, Tasks: []int{shard}, Lo: []int{1}, Hi: []int{2}, Pairs: []int{1}}
	}

	// Out of order: 3, 0, 4.
	for _, s := range []int{3, 0, 4} {
		added, err := w.Add(part(s))
		if err != nil || !added {
			t.Fatalf("Add(shard %d) = (%v, %v), want (true, nil)", s, added, err)
		}
	}
	sizeAfter := func() int64 {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	before := sizeAfter()

	// Duplicate: idempotent no-op, nothing appended to disk.
	if added, err := w.Add(part(3)); err != nil || added {
		t.Fatalf("duplicate Add = (%v, %v), want (false, nil)", added, err)
	}
	if after := sizeAfter(); after != before {
		t.Errorf("duplicate Add grew the file %d -> %d bytes", before, after)
	}

	// Invalid partials: rejected, state unchanged.
	for name, bad := range map[string]*ShardPartial{
		"shard out of range": part(5),
		"negative shard":     {Shard: -1},
		"ragged arrays":      {Shard: 1, Tasks: []int{0, 1}, Lo: []int{1}, Hi: []int{1, 1}, Pairs: []int{1, 1}},
		"task out of range":  {Shard: 1, Tasks: []int{10}, Lo: []int{1}, Hi: []int{1}, Pairs: []int{1}},
		"unsorted tasks":     {Shard: 1, Tasks: []int{2, 2}, Lo: []int{1, 1}, Hi: []int{1, 1}, Pairs: []int{1, 1}},
		"zero pairs":         {Shard: 1, Tasks: []int{0}, Lo: []int{0}, Hi: []int{0}, Pairs: []int{0}},
		"hi below lo":        {Shard: 1, Tasks: []int{0}, Lo: []int{2}, Hi: []int{1}, Pairs: []int{1}},
	} {
		if added, err := w.Add(bad); err == nil || added {
			t.Errorf("%s: Add = (%v, %v), want a validation error", name, added, err)
		}
	}
	if w.HaveCount() != 3 {
		t.Fatalf("HaveCount = %d after rejects, want 3", w.HaveCount())
	}

	wantRanges := []ShardRange{{Start: 0, End: 1}, {Start: 3, End: 5}}
	if got := w.HaveRanges(); len(got) != len(wantRanges) || got[0] != wantRanges[0] || got[1] != wantRanges[1] {
		t.Errorf("HaveRanges = %v, want %v", got, wantRanges)
	}
	if missing := w.Missing(); len(missing) != 2 || missing[0] != 1 || missing[1] != 2 {
		t.Errorf("Missing = %v, want [1 2]", missing)
	}
	if w.Complete() {
		t.Error("writer claims completeness with 2 shards missing")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if added, err := w.Add(part(1)); err == nil || added {
		t.Errorf("Add after Close = (%v, %v), want an error", added, err)
	}

	// Resume: the reopened writer knows exactly what landed, and
	// finishing the remaining shards completes it.
	w2, err := OpenCheckpointWriter(path, layout, true)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.HaveCount() != 3 || !w2.Have(0) || !w2.Have(3) || !w2.Have(4) {
		t.Fatalf("resumed writer has %d shards (%v), want the 3 written", w2.HaveCount(), w2.HaveRanges())
	}
	for _, s := range []int{1, 2} {
		if added, err := w2.Add(part(s)); err != nil || !added {
			t.Fatalf("Add(shard %d) on resumed writer = (%v, %v)", s, added, err)
		}
	}
	if !w2.Complete() {
		t.Error("writer not complete after all shards ingested")
	}
	if ps := w2.Partials(); len(ps) != 5 {
		t.Errorf("Partials returned %d entries, want 5", len(ps))
	} else {
		for i, p := range ps {
			if p.Shard != i {
				t.Errorf("Partials()[%d].Shard = %d, want shard order", i, p.Shard)
			}
		}
	}

	// A foreign layout must not resume this file.
	foreign := *layout
	foreign.Fingerprint = "fedcba9876543210"
	if _, err := OpenCheckpointWriter(path, &foreign, true); err == nil {
		t.Error("foreign-fingerprint resume succeeded, want an error")
	}
}

// TestCheckpointCrashPointSweep simulates a crash at every byte of a
// real checkpoint. A chained grid is evaluated at two workers into a
// checkpoint — every shard its own unit, so records land in completion
// order and many shards start mid-walk — and the file is truncated at
// each byte offset in turn. Every resume must either reproduce the
// uninterrupted bytes or fail with an error naming the checkpoint;
// silently wrong bytes fail the test.
func TestCheckpointCrashPointSweep(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 60, Seed: 17})
	mkGrid := func(mode IncrementalMode) *Grid {
		gr := chainedGrid(g, mode)
		gr.Workers = 2
		return gr
	}
	var want bytes.Buffer
	if err := mkGrid(IncrementalOff).MustEvaluate(g).WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	full := filepath.Join(dir, "full.ckpt")
	// 45 is not a multiple of the chain length (4), so shards start
	// mid-walk.
	const size = 45
	if _, err := mkGrid(IncrementalAuto).EvaluateSharded(context.Background(), g, ShardOptions{ShardSize: size, Checkpoint: full}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(data, []byte("\n")); lines < 5 {
		t.Fatalf("checkpoint has %d lines, want a header and several shard records", lines)
	}
	gr := mkGrid(IncrementalAuto)
	gr.Pool = NewEnginePool()
	path := filepath.Join(dir, "crash.ckpt")
	// Under the race detector every 13th offset is enough to race the
	// resume path; the plain run covers every byte.
	step := 1
	if raceEnabled {
		step = 13
	}
	failed := 0
	for cut := 0; cut <= len(data); cut += step {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := gr.EvaluateSharded(context.Background(), g, ShardOptions{Checkpoint: path, Resume: true})
		gr.Pool.Release()
		if err != nil {
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("cut at byte %d: resume failed with %q, which does not name the checkpoint", cut, err)
			}
			failed++
			continue
		}
		var got bytes.Buffer
		if err := res.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("cut at byte %d of %d: resumed result diverges from the uninterrupted bytes", cut, len(data))
		}
	}
	t.Logf("%d-byte checkpoint cut every %d bytes, %d cuts refused with an error", len(data), step, failed)
}
