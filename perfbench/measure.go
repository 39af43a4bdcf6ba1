package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
)

// samples are what the measuring rounds collect.
type samples struct {
	setup  []float64 // set-up pass walls, s
	passes []pass    // timed passes at the paper's windows
	memo   []float64 // memo replay latencies, ms
}

// measure repeats rounds until the measuring time is spent. A round is a
// slice of set-up passes, one timed pass and a chunk of memo replays (the
// first and last for end-to-end runs only), so every metric samples the
// whole run, not one stretch of it. Each output is checked: passes against
// the first pass of their window, served streams against RunSpec's JSONL
// for the same spec and options, memo replays against the cold stream.
//
// A served workload gets a fresh service (and checkpoint directory) per
// timed pass and replays that service's memo. A direct workload has no
// memo of its own, so it is served once at the smallest window and that
// memo is replayed.
func (b *bench) measure(endToEnd bool) samples {
	var s samples
	paper, small := b.paperOptions(), b.minOptions()
	var refPaper, refSmall pass
	if b.w.served {
		var err error
		refPaper, err = directPass(b.w, paper)
		b.t.record(err)
		if endToEnd {
			var serr error
			refSmall, serr = directPass(b.w, small)
			b.t.record(serr)
			err = errors.Join(err, serr)
		}
		if err != nil {
			return s
		}
	}
	var memo *server // a direct workload's memo, at the smallest window
	defer func() {
		if memo != nil {
			b.t.record(memo.close())
		}
	}()
	for start := time.Now(); time.Since(start) < b.seconds; {
		if endToEnd {
			for t0 := time.Now(); time.Since(t0) < setupSlice; {
				p, err := b.pass(small)
				if err == nil && refSmall.out == nil {
					refSmall = p
				}
				b.t.record(errors.Join(err, sameOutput(p, refSmall)))
				if err == nil {
					s.setup = append(s.setup, p.wall.Seconds())
				}
			}
		}

		var p pass
		var srv *server
		var err error
		if b.w.served {
			if srv, err = startServer(b.dir, b.runner(), b.workers); err == nil {
				p, err = servedPass(srv, b.w, "")
			}
		} else {
			p, err = directPass(b.w, paper)
		}
		if err == nil && refPaper.out == nil {
			refPaper = p
		}
		b.t.record(errors.Join(err, sameOutput(p, refPaper)))
		if err == nil {
			s.passes = append(s.passes, p)
		}

		if endToEnd {
			switch {
			case b.w.served && err == nil:
				s.memo = append(s.memo, b.replay(srv, "", p.out)...)
			case !b.w.served && refSmall.out != nil:
				if memo == nil {
					memo = b.memoServer(refSmall)
				}
				if memo != nil {
					s.memo = append(s.memo, b.replay(memo, windowQuery(small), refSmall.out)...)
				}
			}
		}
		if srv != nil {
			b.t.record(srv.close())
		}
	}
	return s
}

// pass runs the workload once with opts: RunSpec for a direct workload,
// a fresh service for a served one.
func (b *bench) pass(opts experiments.Options) (pass, error) {
	if !b.w.served {
		return directPass(b.w, opts)
	}
	srv, err := startServer(b.dir, b.runner(), b.workers)
	if err != nil {
		return pass{}, err
	}
	p, err := servedPass(srv, b.w, windowQuery(opts))
	return p, errors.Join(err, srv.close())
}

// memoServer serves a direct workload once at the smallest window, whose
// stream must equal ref (RunSpec's), and returns the service, its memo
// populated; nil if that failed.
func (b *bench) memoServer(ref pass) *server {
	srv, err := startServer(b.dir, b.runner(), b.workers)
	if err != nil {
		b.t.record(err)
		return nil
	}
	cold, err := servedPass(srv, b.w, windowQuery(b.minOptions()))
	if err = errors.Join(err, sameOutput(cold, ref)); err != nil {
		b.t.record(errors.Join(err, srv.close()))
		return nil
	}
	b.t.record(nil)
	return srv
}

// replay times memoChunk replays of the workload's tables, alternating
// between them; each stream must equal refs. It returns the latencies, ms.
func (b *bench) replay(srv *server, query string, refs [][]byte) []float64 {
	runtime.GC()
	lat := make([]float64, 0, memoChunk)
	for i := range memoChunk {
		t := b.w.tables[i%len(b.w.tables)]
		start := time.Now()
		out, _, _, err := srv.post(t.body, query, start)
		d := time.Since(start)
		if err == nil && !bytes.Equal(out, refs[i%len(refs)]) {
			err = fmt.Errorf("%s: memo replay differs from the cold stream", t.def.ID)
		}
		b.t.record(err)
		if err == nil {
			lat = append(lat, ms(d))
		}
	}
	return lat
}

// runner is the service's job runner: its default when the benchmark's
// seeds are the service's own (1..n), else one shifting them.
func (b *bench) runner() serve.JobRunner {
	if b.seed == 1 {
		return nil
	}
	return seedRunner(b.seed - 1)
}
