package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/experiments"
)

// Sweep checkpointing. Completed job results persist as an append-only
// JSONL log under the sweep's memo key, one record per completed
// (point, seed) job:
//
//	<dir>/<key>.jsonl      {"job":17,"res":{...}}\n per completed job
//	<dir>/<key>.spec.json  the canonical spec, for humans
//
// Append-only is what makes the format crash-safe: a process killed
// mid-grid leaves a prefix of complete records plus at most one torn
// final line, which Open detects and truncates away. Resume is then
// trivial — load the records, run only the missing jobs — and a fully
// populated log IS the memo: identical sweeps replay from disk without
// simulating anything. Results restore losslessly (experiments.Result is
// JSON-exact except the excluded raw histogram, which no cross-seed
// reduction reads), so a resumed or memoized sweep reduces to tables
// byte-identical to an uninterrupted run.

// checkpointLog is one sweep's open journal.
type checkpointLog struct {
	f *os.File
}

// jobRecord is one journal line.
type jobRecord struct {
	Job int                `json:"job"`
	Res experiments.Result `json:"res"`
}

// openCheckpoint opens (creating if needed) the journal for key under dir
// and returns the results of the jobs completed so far, keyed by job
// index. Records outside [0, njobs) — a stale journal from an older code
// version sharing the key, which the versioned memo key should prevent —
// are an error. A torn final line is truncated, not an error.
func openCheckpoint(dir, key string, njobs int) (*checkpointLog, map[int]experiments.Result, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("serve: checkpoint dir: %w", err)
	}
	path := filepath.Join(dir, key+".jsonl")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: checkpoint: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("serve: checkpoint read: %w", err)
	}
	done := make(map[int]experiments.Result)
	valid := 0 // byte offset after the last intact record
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // no terminator: torn tail from a mid-append crash
		}
		line := data[off : off+nl]
		rec, err := parseRecord(line)
		if err != nil {
			// A malformed line that is not the torn tail means the journal
			// is corrupt beyond the append-crash model; refuse to guess.
			if off+nl+1 < len(data) {
				f.Close()
				return nil, nil, fmt.Errorf("serve: checkpoint %s corrupt at byte %d: %w", path, off, err)
			}
			break
		}
		if rec.Job < 0 || rec.Job >= njobs {
			f.Close()
			return nil, nil, fmt.Errorf("serve: checkpoint %s records job %d outside grid [0,%d)", path, rec.Job, njobs)
		}
		done[rec.Job] = rec.Res
		off += nl + 1
		valid = off
	}
	if valid < len(data) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("serve: checkpoint truncate: %w", err)
		}
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("serve: checkpoint seek: %w", err)
	}
	return &checkpointLog{f: f}, done, nil
}

// parseRecord decodes one journal line, accepting only a line append
// could have written: one that re-marshals to itself byte for byte. JSON
// that merely decodes — null, a record missing its result, an unknown
// field — would otherwise restore as a zero Result and reduce into the
// resumed sweep's table.
func parseRecord(line []byte) (jobRecord, error) {
	var rec jobRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return rec, err
	}
	if b, err := json.Marshal(rec); err != nil || !bytes.Equal(b, line) {
		return rec, fmt.Errorf("line is not a journal record as append writes it")
	}
	return rec, nil
}

// append journals one completed job. Each record is a single Write call
// of one full line, so a crash leaves at most a torn final line.
func (l *checkpointLog) append(job int, res experiments.Result) error {
	b, err := json.Marshal(jobRecord{Job: job, Res: res})
	if err != nil {
		return fmt.Errorf("serve: checkpoint marshal job %d: %w", job, err)
	}
	b = append(b, '\n')
	if _, err := l.f.Write(b); err != nil {
		return fmt.Errorf("serve: checkpoint append job %d: %w", job, err)
	}
	return nil
}

func (l *checkpointLog) close() error { return l.f.Close() }

// writeSpec drops the canonical spec next to the journal (best-effort,
// purely diagnostic: the journal alone is authoritative).
func writeSpec(dir, key string, spec experiments.Spec) {
	if b, err := spec.MarshalIndent(); err == nil {
		_ = os.WriteFile(filepath.Join(dir, key+".spec.json"), b, 0o644)
	}
}
