package serve

import (
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

// TestCheckpointTornTail: a journal whose final line was cut short by a
// crash loses only that line; appends continue cleanly after the
// truncation point.
func TestCheckpointTornTail(t *testing.T) {
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
	// Simulate SIGKILL mid-append: a third record written only partway.
	torn := append(append([]byte{}, data...), []byte(`{"job":2,"res":{"Tot`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	log, done, err := openCheckpoint(dir, "k1", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 {
		t.Fatalf("torn journal restored %d records, want 2", len(done))
	}
	if _, hasTorn := done[2]; hasTorn {
		t.Fatal("the torn record must not restore")
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
}

// TestCheckpointCorruptMiddleRefused: garbage before the final line is
// outside the crash model — the journal is refused, not silently
// repaired.
func TestCheckpointCorruptMiddleRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "k1.jsonl")
	if err := os.WriteFile(path, []byte("not json\n{\"job\":1,\"res\":{}}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := openCheckpoint(dir, "k1", 4)
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupt journal accepted: %v", err)
	}
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
