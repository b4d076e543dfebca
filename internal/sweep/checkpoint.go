package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// The checkpoint file is JSON lines: a header record binding the file
// to one exact grid, then one shard record per completed shard, each
// fsync'd before the shard counts as done. Records may appear in any
// completion order; shard partials merge positionally. A torn final
// line (a crash mid-append) is tolerated on resume — the fsync
// discipline guarantees every *earlier* line is complete — while
// corruption anywhere else fails the resume.

// checkpointVersion is the format version written and accepted.
const checkpointVersion = 1

// The record kinds.
const (
	recordHeader = "header"
	recordShard  = "shard"
)

// checkpointHeader is the first line of a checkpoint file.
type checkpointHeader struct {
	V           int    `json:"v"`
	Kind        string `json:"kind"`
	Fingerprint string `json:"fingerprint"`
	Cells       int    `json:"cells"`
	ShardSize   int    `json:"shard_size"`
	Shards      int    `json:"shards"`
}

// checkpointLine is the union decode target for one line.
type checkpointLine struct {
	Kind        string `json:"kind"`
	V           int    `json:"v,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Cells       int    `json:"cells,omitempty"`
	ShardSize   int    `json:"shard_size,omitempty"`
	Shards      int    `json:"shards,omitempty"`

	// Shard is a pointer so a header line (no "shard" key) is
	// distinguishable from shard 0.
	Shard *int  `json:"shard,omitempty"`
	Tasks []int `json:"tasks,omitempty"`
	Lo    []int `json:"lo,omitempty"`
	Hi    []int `json:"hi,omitempty"`
	Pairs []int `json:"pairs,omitempty"`
}

// decodeCheckpointLine parses and validates one checkpoint line into
// either a header or a shard partial. It enforces every invariant that
// does not require grid context: kinds, version, shape consistency
// (equal-length parallel arrays, strictly increasing task indices,
// non-negative counts, lo ≤ hi, counts zero iff pairs zero). Range
// checks against a concrete grid (shard < shards, task < tasks) are the
// loader's job.
func decodeCheckpointLine(data []byte) (*checkpointHeader, *ShardPartial, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var ln checkpointLine
	if err := dec.Decode(&ln); err != nil {
		return nil, nil, err
	}
	// Trailing garbage after the JSON object is corruption, not a record.
	// More reports false before a stray '}' or ']', so ask for the next
	// token: only the end of the line is clean.
	if _, err := dec.Token(); err != io.EOF {
		return nil, nil, fmt.Errorf("trailing data after record")
	}
	switch ln.Kind {
	case recordHeader:
		if ln.V != checkpointVersion {
			return nil, nil, fmt.Errorf("unsupported checkpoint version %d", ln.V)
		}
		if len(ln.Fingerprint) != 16 {
			return nil, nil, fmt.Errorf("malformed fingerprint %q", ln.Fingerprint)
		}
		if ln.Cells <= 0 || ln.ShardSize <= 0 || ln.Shards != numShards(ln.Cells, ln.ShardSize) {
			return nil, nil, fmt.Errorf("inconsistent header geometry (cells=%d shard_size=%d shards=%d)",
				ln.Cells, ln.ShardSize, ln.Shards)
		}
		if ln.Shard != nil || ln.Tasks != nil || ln.Lo != nil || ln.Hi != nil || ln.Pairs != nil {
			return nil, nil, fmt.Errorf("header carries shard fields")
		}
		return &checkpointHeader{
			V: ln.V, Kind: ln.Kind, Fingerprint: ln.Fingerprint,
			Cells: ln.Cells, ShardSize: ln.ShardSize, Shards: ln.Shards,
		}, nil, nil
	case recordShard:
		if ln.Shard == nil {
			return nil, nil, fmt.Errorf("shard record without a valid shard index")
		}
		p := &ShardPartial{
			Shard: *ln.Shard, Tasks: ln.Tasks, Lo: ln.Lo, Hi: ln.Hi, Pairs: ln.Pairs,
		}
		if err := validatePartialShape(p); err != nil {
			return nil, nil, err
		}
		return nil, p, nil
	default:
		return nil, nil, fmt.Errorf("unknown record kind %q", ln.Kind)
	}
}

// validatePartialShape enforces every context-free invariant of a shard
// partial: a non-negative shard index, equal-length parallel arrays,
// strictly increasing task indices, and positive pair counts with
// 0 ≤ lo ≤ hi. It is the shared gate for partials arriving from any
// untrusted edge — checkpoint lines, coordinator submissions — while
// range checks against a concrete grid (shard < shards, task < tasks)
// stay with the caller that knows the grid (Layout.ValidatePartial,
// parseCheckpoint).
func validatePartialShape(p *ShardPartial) error {
	if p.Shard < 0 {
		return fmt.Errorf("shard record without a valid shard index")
	}
	n := len(p.Tasks)
	if len(p.Lo) != n || len(p.Hi) != n || len(p.Pairs) != n {
		return fmt.Errorf("shard %d: ragged arrays (%d tasks, %d lo, %d hi, %d pairs)",
			p.Shard, n, len(p.Lo), len(p.Hi), len(p.Pairs))
	}
	for i := 0; i < n; i++ {
		if p.Tasks[i] < 0 || (i > 0 && p.Tasks[i] <= p.Tasks[i-1]) {
			return fmt.Errorf("shard %d: task indices not strictly increasing", p.Shard)
		}
		if p.Pairs[i] <= 0 || p.Lo[i] < 0 || p.Hi[i] < p.Lo[i] {
			return fmt.Errorf("shard %d: invalid counts at task %d (lo=%d hi=%d pairs=%d)",
				p.Shard, p.Tasks[i], p.Lo[i], p.Hi[i], p.Pairs[i])
		}
	}
	return nil
}

// checkpointFile is an open checkpoint with the shard partials resumed
// from it (nil for a fresh run).
type checkpointFile struct {
	f       *os.File
	resumed []*ShardPartial
}

// syncDir fsyncs the directory containing path. Per-record f.Sync()
// makes the *contents* durable, but a newly created file's directory
// entry is not durable until its parent directory is synced — without
// this, a crash shortly after sweep start can lose the whole checkpoint
// despite every record having been fsync'd.
func syncDir(path string) error {
	if runtime.GOOS == "windows" {
		// Directories cannot be fsync'd through a read-only handle on
		// Windows (FlushFileBuffers fails); NTFS metadata journaling
		// covers the directory entry. Same policy as etcd/badger.
		return nil
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// openCheckpoint opens path for the grid identified by fingerprint and
// cells, and resolves the shard size: reqSize is the caller's request
// (≤ 0 for the default). With resume set and a usable existing file,
// the file's shard size wins (an explicit conflicting reqSize is an
// error), the completed shards are loaded, and the file is opened for
// append; otherwise the file is created (or truncated) and the header
// written and synced.
func openCheckpoint(path, fingerprint string, cells, tasks, reqSize int, resume bool) (*checkpointFile, int, error) {
	if resume {
		data, err := os.ReadFile(path)
		switch {
		// A file without a single complete ('\n'-terminated) line holds
		// no durable record — at most a header torn by a crash during a
		// previous open — and is restarted from scratch below.
		case err == nil && bytes.IndexByte(data, '\n') >= 0:
			resumed, size, perr := parseCheckpoint(data, fingerprint, cells, tasks, reqSize)
			if perr != nil {
				return nil, 0, fmt.Errorf("sweep: resume %s: %w", path, perr)
			}
			f, ferr := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if ferr != nil {
				return nil, 0, ferr
			}
			// Drop a torn final line before appending: without this, the
			// first new record would fuse with the torn bytes into an
			// invalid interior line and poison every later resume. The
			// truncation is fsync'd (file and directory) before any new
			// record lands, so a crash right here cannot resurrect the
			// torn bytes under freshly appended ones.
			if valid := bytes.LastIndexByte(data, '\n') + 1; valid < len(data) {
				if terr := f.Truncate(int64(valid)); terr != nil {
					f.Close()
					return nil, 0, terr
				}
				if serr := f.Sync(); serr != nil {
					f.Close()
					return nil, 0, serr
				}
				if derr := syncDir(path); derr != nil {
					f.Close()
					return nil, 0, derr
				}
			}
			return &checkpointFile{f: f, resumed: resumed}, size, nil
		case err != nil && !os.IsNotExist(err):
			return nil, 0, err
		}
		// No file (or an empty one, from a crash before the header
		// landed): fall through to a fresh run.
	}
	size := reqSize
	if size <= 0 {
		size = DefaultShardSize
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, 0, err
	}
	cp := &checkpointFile{f: f}
	if err := cp.writeRecord(checkpointHeader{
		V:           checkpointVersion,
		Kind:        recordHeader,
		Fingerprint: fingerprint,
		Cells:       cells,
		ShardSize:   size,
		Shards:      numShards(cells, size),
	}); err != nil {
		f.Close()
		return nil, 0, err
	}
	// Make the file's directory entry durable: without this, a crash
	// after sweep start could lose the whole file, per-record fsyncs
	// notwithstanding.
	if err := syncDir(path); err != nil {
		f.Close()
		return nil, 0, err
	}
	return cp, size, nil
}

// parseCheckpoint validates a checkpoint file's contents against the
// expected grid identity and returns its completed shard partials
// (first record wins on duplicates, which can only carry identical
// contents) plus the file's shard size.
func parseCheckpoint(data []byte, fingerprint string, cells, tasks, reqSize int) ([]*ShardPartial, int, error) {
	lines := bytes.Split(data, []byte("\n"))
	// Drop trailing blank lines so "last line" means the last record.
	for len(lines) > 0 && len(bytes.TrimSpace(lines[len(lines)-1])) == 0 {
		lines = lines[:len(lines)-1]
	}
	var partials []*ShardPartial
	var shards int
	seen := make(map[int]bool)
	for i, line := range lines {
		if len(bytes.TrimSpace(line)) == 0 {
			return nil, 0, fmt.Errorf("line %d: blank line inside checkpoint", i+1)
		}
		hdr, p, err := decodeCheckpointLine(line)
		if err != nil {
			if i == len(lines)-1 && i > 0 {
				// Torn final append from a crash mid-write: every
				// earlier record was fsync'd whole, so ignore it.
				break
			}
			return nil, 0, fmt.Errorf("line %d: %w", i+1, err)
		}
		if i == 0 {
			if hdr == nil {
				return nil, 0, fmt.Errorf("line 1: first record is not a header")
			}
			if hdr.Fingerprint != fingerprint || hdr.Cells != cells {
				return nil, 0, fmt.Errorf("checkpoint belongs to a different sweep "+
					"(fingerprint %s cells=%d; want %s cells=%d)",
					hdr.Fingerprint, hdr.Cells, fingerprint, cells)
			}
			if reqSize > 0 && reqSize != hdr.ShardSize {
				return nil, 0, fmt.Errorf("checkpoint uses shard size %d, not %d "+
					"(omit the shard size to adopt the file's)", hdr.ShardSize, reqSize)
			}
			reqSize, shards = hdr.ShardSize, hdr.Shards
			continue
		}
		if hdr != nil {
			return nil, 0, fmt.Errorf("line %d: duplicate header", i+1)
		}
		if p.Shard >= shards {
			return nil, 0, fmt.Errorf("line %d: shard %d out of range [0,%d)", i+1, p.Shard, shards)
		}
		for _, ti := range p.Tasks {
			if ti >= tasks {
				return nil, 0, fmt.Errorf("line %d: task %d out of range [0,%d)", i+1, ti, tasks)
			}
		}
		if seen[p.Shard] {
			continue
		}
		seen[p.Shard] = true
		partials = append(partials, p)
	}
	return partials, reqSize, nil
}

// writeRecord appends one JSON line and syncs it to stable storage, so
// a record that exists is complete and a crash can tear at most the
// line currently being written.
func (cp *checkpointFile) writeRecord(rec any) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := cp.f.Write(append(data, '\n')); err != nil {
		return err
	}
	return cp.f.Sync()
}

// shardRecord tags a ShardPartial with its record kind for the wire.
type shardRecord struct {
	Kind string `json:"kind"`
	*ShardPartial
}

// append durably records one completed shard.
func (cp *checkpointFile) append(p *ShardPartial) error {
	return cp.writeRecord(shardRecord{Kind: recordShard, ShardPartial: p})
}

func (cp *checkpointFile) close() error {
	return cp.f.Close()
}
