package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/units"
)

func testResult(total float64) experiments.Result {
	return experiments.Result{
		LSG:     stats.Summary{Count: 3, Median: 1500 * units.Nanosecond, P999: 9 * units.Microsecond},
		BSGGbps: []float64{12.5, 13.0625},
		Total:   total,
	}
}

// TestCheckpointRoundTrip: append then reopen restores every record
// exactly — the property that makes resumed sweeps byte-identical.
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	log, done, err := openCheckpoint(dir, "k1", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 0 {
		t.Fatalf("fresh journal has %d records", len(done))
	}
	want := map[int]experiments.Result{0: testResult(1.25), 3: testResult(0.1 + 0.2)}
	for job, res := range want {
		if err := log.append(job, res); err != nil {
			t.Fatal(err)
		}
	}
	log.close()
	log, done, err = openCheckpoint(dir, "k1", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer log.close()
	if !reflect.DeepEqual(done, want) {
		t.Fatalf("restored records differ:\ngot  %+v\nwant %+v", done, want)
	}
}

// nonRecords are lines that decode into a jobRecord but that append never
// writes. Each once restored as job 0: with a zero Result, or with the
// result of a record carrying an unknown field.
func nonRecords(t testing.TB) []struct{ name, line string } {
	full, err := json.Marshal(jobRecord{Job: 0, Res: testResult(9)})
	if err != nil {
		t.Fatal(err)
	}
	return []struct{ name, line string }{
		{"null", "null"},
		{"record without result", `{"job":0}`},
		{"null result", `{"job":0,"res":null}`},
		{"unknown field", strings.TrimSuffix(string(full), "}") + `,"extra":1}`},
	}
}

// TestCheckpointTornTail: a journal whose final line was cut short by a
// crash, or is any other line append could not have written, loses only
// that line; appends continue cleanly after the truncation point.
func TestCheckpointTornTail(t *testing.T) {
	// Simulate SIGKILL mid-append: a third record written only partway.
	tails := []struct{ name, tail string }{{"torn record", `{"job":2,"res":{"Tot`}}
	for _, nr := range nonRecords(t) {
		tails = append(tails, struct{ name, tail string }{nr.name, nr.line + "\n"})
	}
	for _, tc := range tails {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			log, _, err := openCheckpoint(dir, "k1", 4)
			if err != nil {
				t.Fatal(err)
			}
			log.append(0, testResult(1))
			log.append(1, testResult(2))
			log.close()
			path := filepath.Join(dir, "k1.jsonl")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			torn := append(append([]byte{}, data...), tc.tail...)
			if err := os.WriteFile(path, torn, 0o644); err != nil {
				t.Fatal(err)
			}
			log, done, err := openCheckpoint(dir, "k1", 4)
			if err != nil {
				t.Fatal(err)
			}
			if len(done) != 2 || done[0].Total != 1 || done[1].Total != 2 {
				t.Fatalf("journal with a bad tail restored %+v, want jobs 0 and 1 as appended", done)
			}
			// The torn bytes are gone and the journal keeps accepting appends.
			if err := log.append(2, testResult(3)); err != nil {
				t.Fatal(err)
			}
			log.close()
			log, done, err = openCheckpoint(dir, "k1", 4)
			if err != nil {
				t.Fatal(err)
			}
			log.close()
			if len(done) != 3 || done[2].Total != 3 {
				t.Fatalf("post-truncation append did not land: %+v", done)
			}
		})
	}
}

// TestCheckpointCorruptMiddleRefused: garbage before the final line, or
// any other line append could not have written, is outside the crash
// model — the journal is refused, not silently repaired.
func TestCheckpointCorruptMiddleRefused(t *testing.T) {
	record, err := json.Marshal(jobRecord{Job: 1, Res: testResult(1)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range append([]struct{ name, line string }{{"not json", "not json"}}, nonRecords(t)...) {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "k1.jsonl")
			if err := os.WriteFile(path, []byte(tc.line+"\n"+string(record)+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := openCheckpoint(dir, "k1", 4)
			if err == nil || !strings.Contains(err.Error(), "corrupt") {
				t.Fatalf("corrupt journal accepted: %v", err)
			}
		})
	}
}

// FuzzCheckpointReopen: whatever bytes a journal holds, openCheckpoint
// either refuses it, or truncates it to a prefix of complete lines, each
// the marshalled form of the record it restored, and opening it again
// changes nothing.
func FuzzCheckpointReopen(f *testing.F) {
	var journal []byte
	for job := 0; job < 3; job++ {
		b, err := json.Marshal(jobRecord{Job: job, Res: testResult(float64(job) + 0.5)})
		if err != nil {
			f.Fatal(err)
		}
		journal = append(append(journal, b...), '\n')
	}
	f.Add(journal, uint8(4))
	f.Add(journal, uint8(2))                  // a record outside the grid
	f.Add(journal[:len(journal)-9], uint8(4)) // torn tail
	f.Add([]byte{}, uint8(1))
	for _, nr := range nonRecords(f) {
		f.Add([]byte(nr.line+"\n"), uint8(1))
		f.Add(append(append([]byte{}, journal...), nr.line+"\n"...), uint8(4))
		f.Add([]byte(nr.line+"\n"+string(journal)), uint8(4))
	}
	// Inputs run one at a time in each fuzzing process, so they can share
	// one journal path.
	dir := f.TempDir()
	path := filepath.Join(dir, "k.jsonl")
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		njobs := int(n % 8)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		log, done, err := openCheckpoint(dir, "k", njobs)
		if err != nil {
			return
		}
		log.close()
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, kept) || (len(kept) > 0 && kept[len(kept)-1] != '\n') {
			t.Fatalf("journal %q kept as %q: not a prefix of complete lines", data, kept)
		}
		last := map[int]string{} // each job's last line
		for _, line := range strings.SplitAfter(string(kept), "\n") {
			if line == "" {
				continue
			}
			var rec jobRecord
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("kept line %q does not decode: %v", line, err)
			}
			last[rec.Job] = line
		}
		if len(done) != len(last) {
			t.Fatalf("restored %d jobs from %d distinct kept records", len(done), len(last))
		}
		for job, res := range done {
			b, err := json.Marshal(jobRecord{Job: job, Res: res})
			if err != nil {
				t.Fatal(err)
			}
			if want := string(b) + "\n"; last[job] != want {
				t.Fatalf("job %d restored from line %q, which is not its marshalled record %q", job, last[job], want)
			}
		}
		log, again, err := openCheckpoint(dir, "k", njobs)
		if err != nil {
			t.Fatalf("reopening the kept journal failed: %v", err)
		}
		log.close()
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, kept) {
			t.Fatalf("reopening changed the journal: %q -> %q (%v)", kept, after, err)
		}
		if !reflect.DeepEqual(again, done) {
			t.Fatalf("reopening restored %+v, first open %+v", again, done)
		}
	})
}

// TestCheckpointForeignJobRefused: a record outside the grid means the
// key collided with a different sweep shape — refuse rather than mix.
func TestCheckpointForeignJobRefused(t *testing.T) {
	dir := t.TempDir()
	log, _, err := openCheckpoint(dir, "k1", 8)
	if err != nil {
		t.Fatal(err)
	}
	log.append(7, testResult(1))
	log.close()
	if _, _, err := openCheckpoint(dir, "k1", 4); err == nil || !strings.Contains(err.Error(), "outside grid") {
		t.Fatalf("foreign job accepted: %v", err)
	}
}
