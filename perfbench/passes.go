package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/units"
)

// pass is one measured run of a workload's tables.
type pass struct {
	out      [][]byte      // each table's JSONL, in table order
	wall     time.Duration // call (or first POST) to the last output row
	firstRow time.Duration // call (or first POST) to the first data row
	alloc    uint64        // heap bytes allocated during the pass
}

// measured runs fn and records its wall time and heap allocation.
func measured(fn func(start time.Time) (pass, error)) (pass, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p, err := fn(time.Now())
	runtime.ReadMemStats(&after)
	p.alloc = after.TotalAlloc - before.TotalAlloc
	return p, err
}

// clockSink stamps the first and last row a table sink writes.
type clockSink struct {
	experiments.Sink
	start       time.Time
	first, last time.Duration
}

func (s *clockSink) Row(cells []string) error {
	err := s.Sink.Row(cells)
	s.last = time.Since(s.start)
	if s.first == 0 {
		s.first = s.last
	}
	return err
}

// directPass runs every table through experiments.RunSpec and streams it
// through the JSONL sink, as `ibsim run -format jsonl` does.
func directPass(w *workloadSpec, opts experiments.Options) (pass, error) {
	return measured(func(start time.Time) (pass, error) {
		var p pass
		for _, t := range w.tables {
			tbl, err := experiments.RunSpec(t.def, opts)
			if err != nil {
				return p, fmt.Errorf("%s: %w", t.def.ID, err)
			}
			var buf bytes.Buffer
			sink := &clockSink{Sink: experiments.NewJSONLSink(&buf), start: start}
			if err := tbl.Emit(sink); err != nil {
				return p, err
			}
			if p.firstRow == 0 {
				p.firstRow = sink.first
			}
			p.wall = sink.last
			p.out = append(p.out, buf.Bytes())
		}
		return p, nil
	})
}

// server is an in-process serve.Server on a loopback port, with a client
// that keeps one connection open.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	dir    string
	done   chan error
}

// startServer starts a service journaling under a fresh checkpoint
// directory inside root. Every other serve default is left as is.
func startServer(root string, runner serve.JobRunner, workers int) (*server, error) {
	dir, err := os.MkdirTemp(root, "ckpt-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{CheckpointDir: dir, Workers: workers, Runner: runner})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &server{
		srv:    srv,
		hs:     &http.Server{Handler: srv},
		url:    "http://" + ln.Addr().String() + "/run",
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}},
		dir:    dir,
		done:   make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close drains the service, stops the listener, waits for the serving
// goroutine and removes the checkpoint directory.
func (s *server) close() error {
	s.client.CloseIdleConnections()
	s.srv.Shutdown(5 * time.Second)
	err := s.hs.Shutdown(context.Background())
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

var (
	rowPrefix   = []byte(`{"type":"row"`)
	errorPrefix = []byte(`{"type":"error"`)
)

// post sends one spec and reads its stream to the end. Row times are
// measured from start. A non-200 status or a stream error line is an error.
func (s *server) post(body []byte, query string, start time.Time) (out []byte, first, last time.Duration, err error) {
	url := s.url
	if query != "" {
		url += "?" + query
	}
	resp, err := s.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, 0, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	br := bufio.NewReader(resp.Body)
	var streamErr error
	for {
		line, rerr := br.ReadBytes('\n')
		if len(line) > 0 {
			buf.Write(line)
			switch {
			case bytes.HasPrefix(line, rowPrefix):
				last = time.Since(start)
				if first == 0 {
					first = last
				}
			case bytes.HasPrefix(line, errorPrefix) && streamErr == nil:
				streamErr = fmt.Errorf("stream error line: %s", bytes.TrimSpace(line))
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return nil, 0, 0, rerr
		}
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, 0, fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(buf.Bytes()))
	}
	return buf.Bytes(), first, last, streamErr
}

// servedPass POSTs every table in order over one connection.
func servedPass(s *server, w *workloadSpec, query string) (pass, error) {
	return measured(func(start time.Time) (pass, error) {
		var p pass
		for _, t := range w.tables {
			out, first, last, err := s.post(t.body, query, start)
			if err != nil {
				return p, fmt.Errorf("%s: %w", t.def.ID, err)
			}
			if p.firstRow == 0 {
				p.firstRow = first
			}
			p.wall = last
			p.out = append(p.out, out)
		}
		return p, nil
	})
}

// seedRunner is the service's default job runner with the benchmark seed
// applied: the query carries a seed count (1..n), and the runner shifts
// those seeds so the service runs the same seeds as the direct path.
func seedRunner(offset uint64) serve.JobRunner {
	return func(ctx context.Context, p experiments.Point, opts experiments.Options, seed uint64) (experiments.Result, error) {
		opts.Ctx = ctx
		return experiments.Run(p, opts, seed+offset)
	}
}

// windowQuery is the query selecting a run window on the service.
func windowQuery(opts experiments.Options) string {
	return fmt.Sprintf("measure=%dns&warmup=%dns&seeds=%d",
		int64(opts.Measure/units.Nanosecond), int64(opts.Warmup/units.Nanosecond), len(opts.Seeds))
}
