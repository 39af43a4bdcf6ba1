package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseSpec: any input ParseSpec accepts marshals to JSON that
// ParseSpec accepts again, and that JSON re-marshals byte-identically. The
// serve package keys its checkpoint memo on the marshalled spec, so a
// spec that drifted on a round trip would miss its own memo. The seed
// corpus — the committed specs, the example specs and every registered
// definition — runs in plain `go test`; `make fuzz-spec` explores beyond it.
func FuzzParseSpec(f *testing.F) {
	var files []string
	for _, pattern := range []string{"../../specs/*.json", "../../examples/*/spec.json"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) == 0 {
		f.Fatal("no committed specs found to seed the corpus")
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, d := range Definitions() {
		data, err := json.Marshal(d.Spec)
		if err != nil {
			f.Fatalf("%s: %v", d.ID, err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		first, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		again, err := ParseSpec(first)
		if err != nil {
			t.Fatalf("marshalled spec rejected: %v\n%s", err, first)
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("reparsed spec does not marshal: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("marshal not a fixed point:\n--- first ---\n%s\n--- second ---\n%s", first, second)
		}
	})
}
