package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// window is the small simulated window every test here runs at.
var window = []string{"-measure", "300us", "-warmup", "100us", "-seeds", "2"}

type command func(context.Context, []string, io.Writer) error

// output runs a command under a live context and returns its stdout.
func output(t *testing.T, cmd command, args ...string) string {
	t.Helper()
	var b bytes.Buffer
	if err := cmd(context.Background(), append(args, window...), &b); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return b.String()
}

// TestFlagsCheckedBeforeRunning: a bad -format, -out or profile path fails
// before any job is dispatched. The context is already cancelled, so a
// check that came after dispatch would report the cancellation instead.
func TestFlagsCheckedBeforeRunning(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing", "x.txt")
	for _, tc := range []struct {
		cmd  command
		args []string
		want func(error) bool
	}{
		{cmdRun, []string{"-id", "fig8", "-format", "xml"}, mentions(`format "xml"`)},
		{playground, []string{"-format", "xml"}, mentions(`format "xml"`)},
		{cmdRun, []string{"-id", "fig8", "-out", missing}, notExist},
		{cmdRun, []string{"-id", "fig8", "-cpuprofile", missing}, notExist},
		{cmdRun, []string{"-id", "fig8", "-memprofile", missing}, notExist},
		{cmdRun, []string{"-id", "fig7a,fig9", "-out", filepath.Join(file, "d")}, mentions("not a directory")},
		{cmdRun, []string{"-id", "fig7a,fig9", "-shards", "2"}, mentions("-shards takes one table")},
	} {
		err := tc.cmd(ctx, tc.args, io.Discard)
		if errors.Is(err, context.Canceled) || !tc.want(err) {
			t.Errorf("%v: got %v", tc.args, err)
		}
	}
}

func mentions(s string) func(error) bool {
	return func(err error) bool { return err != nil && strings.Contains(err.Error(), s) }
}

func notExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }

// csvTable runs a command with -format csv and indexes its one table:
// cell(row, column) finds the row whose first cell is row.
func csvTable(t *testing.T, cmd command, args ...string) func(row, col string) string {
	t.Helper()
	recs, err := csv.NewReader(strings.NewReader(output(t, cmd, append(args, "-format", "csv")...))).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return func(row, col string) string {
		t.Helper()
		for _, r := range recs[1:] {
			if row != "" && r[0] != row {
				continue
			}
			for i, c := range recs[0] {
				if c == col {
					return r[i]
				}
			}
		}
		t.Fatalf("%v: no cell (%q, %q) in %v", args, row, col, recs)
		return ""
	}
}

// TestPlaygroundMatchesFigures: the playground's flag→Point translation
// lands on the figures' own points, so its cells equal theirs.
func TestPlaygroundMatchesFigures(t *testing.T) {
	fig7a := csvTable(t, cmdRun, "-id", "fig7a")
	fig12 := csvTable(t, cmdRun, "-id", "fig12")
	fig13 := csvTable(t, cmdRun, "-id", "fig13")
	converged := csvTable(t, playground)
	gamed := csvTable(t, playground, "-qos", "-pretend")
	for _, c := range []struct{ got, want string }{
		{converged("", "lsg_p50_us"), fig7a("5", "p50_us")},
		{converged("", "lsg_p999_us"), fig7a("5", "p999_us")},
		{gamed("", "lsg_p50_us"), fig12("dedicated SL + pretend LSG", "p50_us")},
		{gamed("", "lsg_p999_us"), fig12("dedicated SL + pretend LSG", "p999_us")},
		{gamed("", "pretend_gbps"), fig13("dedicated+pretend", "bsg5/pretend")},
	} {
		if c.got != c.want {
			t.Errorf("playground cell %s, figure cell %s", c.got, c.want)
		}
	}
}

// TestRunSeveralIDs: several ids print each table as a single id would,
// followed by a blank line, and -out names a directory of <id>.<format>
// files holding exactly the single-id outputs.
func TestRunSeveralIDs(t *testing.T) {
	fig7a := output(t, cmdRun, "-id", "fig7a")
	fig9 := output(t, cmdRun, "-id", "fig9")
	if got, want := output(t, cmdRun, "-id", "fig7a,fig9"), fig7a+"\n"+fig9+"\n"; got != want {
		t.Errorf("-id fig7a,fig9:\n%s\nwant:\n%s", got, want)
	}

	dir := filepath.Join(t.TempDir(), "tables")
	if out := output(t, cmdRun, "-id", "fig7a,fig9", "-format", "jsonl", "-out", dir); out != "" {
		t.Errorf("-out %s also wrote stdout: %q", dir, out)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if strings.Join(names, " ") != "fig7a.jsonl fig9.jsonl" {
		t.Fatalf("-out %s holds %v, want fig7a.jsonl fig9.jsonl", dir, names)
	}
	for _, id := range []string{"fig7a", "fig9"} {
		got, err := os.ReadFile(filepath.Join(dir, id+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if want := output(t, cmdRun, "-id", id, "-format", "jsonl"); string(got) != want {
			t.Errorf("%s.jsonl:\n%s\nwant:\n%s", id, got, want)
		}
	}
}
