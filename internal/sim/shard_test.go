package sim

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/units"
)

// The shard tests verify the conservative protocol's contract directly at
// the sim layer: grouping-independence (the same objects produce the same
// event history on 1 shard and on N), the epoch-horizon ordering rules,
// zero-lookahead rejection, and the interaction between mailbox-inserted
// events and Cancel/Reschedule. The fabric-level equivalence tests in
// internal/experiments build on these.

// bouncer is a test node: it logs every typed event it handles and, while
// its hop budget lasts, bounces a message back to its peer over its channel.
type bouncer struct {
	name string
	eng  *Engine
	out  *Chan
	peer Handler
	lag  units.Duration
	log  []string

	// victim is an optional pending local event the bouncer manipulates on
	// command: A == -1 cancels it, A == -2 pulls it earlier by one ns.
	victim *Event
}

func (b *bouncer) HandleEvent(ev *Event) {
	b.log = append(b.log, fmt.Sprintf("%s %v %s %d", b.name, b.eng.Now(), ev.Label(), ev.A))
	switch {
	case ev.A == -1 && b.victim != nil:
		b.eng.Cancel(b.victim)
		b.victim = nil
	case ev.A == -2 && b.victim != nil:
		b.eng.Reschedule(b.victim, b.eng.Now().Add(1*units.Nanosecond))
	case ev.A > 0:
		m := b.out.Send(b.eng.Now().Add(b.lag), "bounce", b.peer)
		m.A = ev.A - 1
	}
}

// buildPingPong wires two bouncers onto a coordinator with the given
// shard placement, kicks node a with `hops` bounces at start, and returns
// the nodes. lag is both the channel latency floor and the bounce delay.
func buildPingPong(t *testing.T, shards int, placeB int, lag units.Duration, hops int64) (*Coordinator, *bouncer, *bouncer) {
	t.Helper()
	coord, err := NewCoordinator(shards, lag)
	if err != nil {
		t.Fatal(err)
	}
	a := &bouncer{name: "a", eng: coord.Shard(0).Eng, lag: lag}
	bb := &bouncer{name: "b", eng: coord.Shard(placeB).Eng, lag: lag}
	ab, err := coord.Channel(0, placeB, lag)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := coord.Channel(placeB, 0, lag)
	if err != nil {
		t.Fatal(err)
	}
	a.out, a.peer = ab, bb
	bb.out, bb.peer = ba, a
	// Kick: a local event on a's engine that starts the exchange.
	ev := a.eng.AtEvent(0, "kick", a)
	ev.A = hops
	return coord, a, bb
}

func pingPongLogs(t *testing.T, shards, placeB int, parallel bool, lag units.Duration, end units.Time) string {
	t.Helper()
	coord, a, b := buildPingPong(t, shards, placeB, lag, 40)
	coord.Parallel = parallel
	coord.RunUntil(end)
	return strings.Join(a.log, "\n") + "\n---\n" + strings.Join(b.log, "\n")
}

// TestShardGroupingIndependence is the core determinism property: the same
// two objects exchange the same messages at the same times whether they
// share one shard (self-loop channels) or sit on two, and whether the
// barrier is round-based or channel-based.
func TestShardGroupingIndependence(t *testing.T) {
	const lag = 7 * units.Nanosecond
	end := units.Time(0).Add(2 * units.Microsecond)
	ref := pingPongLogs(t, 1, 0, false, lag, end)
	if !strings.Contains(ref, "bounce") {
		t.Fatalf("reference run exchanged no messages:\n%s", ref)
	}
	for _, tc := range []struct {
		name     string
		shards   int
		placeB   int
		parallel bool
	}{
		{"two-shards-rounds", 2, 1, false},
		{"two-shards-channel-barrier", 2, 1, true},
		{"one-shard-parallel-flag", 1, 0, true}, // degenerates to rounds
	} {
		if got := pingPongLogs(t, tc.shards, tc.placeB, tc.parallel, lag, end); got != ref {
			t.Errorf("%s diverged from the one-shard reference:\n--- ref ---\n%s\n--- got ---\n%s", tc.name, ref, got)
		}
	}
}

// TestShardEpochHorizonSimultaneity pins the ordering rule at epoch
// boundaries: a message due at exactly k*L is inserted when the epoch
// opening at k*L begins, and orders after local events already scheduled at
// that same timestamp — in every grouping. The bounce lag equals the
// lookahead, so every delivery lands exactly on the epoch grid.
func TestShardEpochHorizonSimultaneity(t *testing.T) {
	const lag = 10 * units.Nanosecond
	end := units.Time(0).Add(500 * units.Nanosecond)
	run := func(shards, placeB int, parallel bool) string {
		coord, a, b := buildPingPong(t, shards, placeB, lag, 20)
		coord.Parallel = parallel
		// Local events at the exact delivery timestamps of the first two
		// bounces (t = lag on b, t = 2*lag on a). They are scheduled before
		// the run, hence before the mailbox insertions at those timestamps,
		// and must execute first.
		bv := b.eng.AtEvent(units.Time(0).Add(lag), "local", b)
		bv.A = 0
		av := a.eng.AtEvent(units.Time(0).Add(2*lag), "local", a)
		av.A = 0
		coord.RunUntil(end)
		return strings.Join(a.log, "\n") + "\n---\n" + strings.Join(b.log, "\n")
	}
	ref := run(1, 0, false)
	for i, line := range []string{"b 10.00ns local 0", "b 10.00ns bounce 19"} {
		if !strings.Contains(ref, line) {
			t.Fatalf("missing expected log line %d %q in:\n%s", i, line, ref)
		}
	}
	// Local-before-mailbox at the shared timestamp.
	if li, mi := strings.Index(ref, "b 10.00ns local 0"), strings.Index(ref, "b 10.00ns bounce 19"); li > mi {
		t.Errorf("local event at the epoch horizon ran after the mailbox delivery:\n%s", ref)
	}
	for _, parallel := range []bool{false, true} {
		if got := run(2, 1, parallel); got != ref {
			t.Errorf("horizon run (parallel=%v) diverged:\n--- ref ---\n%s\n--- got ---\n%s", parallel, ref, got)
		}
	}
}

// TestShardZeroLookaheadRejected: a zero-latency cut admits no conservative
// window; both the coordinator and the per-channel floor reject it.
func TestShardZeroLookaheadRejected(t *testing.T) {
	if _, err := NewCoordinator(2, 0); err == nil {
		t.Error("NewCoordinator accepted zero lookahead")
	}
	if _, err := NewCoordinator(2, -1*units.Nanosecond); err == nil {
		t.Error("NewCoordinator accepted negative lookahead")
	}
	if _, err := NewCoordinator(0, units.Nanosecond); err == nil {
		t.Error("NewCoordinator accepted zero shards")
	}
	coord, err := NewCoordinator(2, 5*units.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Channel(0, 1, 4*units.Nanosecond); err == nil {
		t.Error("Channel accepted a latency floor below the coordinator lookahead")
	}
	ch, err := coord.Channel(0, 1, 5*units.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	// A send under the declared floor must panic, not silently reorder.
	defer func() {
		if recover() == nil {
			t.Error("Send below the lookahead did not panic")
		}
	}()
	ch.Send(units.Time(0).Add(4*units.Nanosecond), "too-soon", &bouncer{})
}

// TestShardMailboxCancelReschedule: events created by mailbox insertion are
// ordinary engine events; a handler driven by one may cancel or reschedule
// other pending events, and the outcome is grouping-independent.
func TestShardMailboxCancelReschedule(t *testing.T) {
	const lag = 8 * units.Nanosecond
	end := units.Time(0).Add(1 * units.Microsecond)
	run := func(shards, placeB int, parallel bool) string {
		coord, err := NewCoordinator(shards, lag)
		if err != nil {
			t.Fatal(err)
		}
		b := &bouncer{name: "b", eng: coord.Shard(placeB).Eng, lag: lag}
		ab, err := coord.Channel(0, placeB, lag)
		if err != nil {
			t.Fatal(err)
		}
		coord.Parallel = parallel
		// b holds a far-future victim event; a mailbox message arriving at
		// t=lag pulls it to t=lag+1ns, and a second message at t=2*lag would
		// cancel it (already fired by then — Cancel of a fired event is
		// driven through victim=nil, so this also exercises the bookkeeping).
		b.victim = b.eng.AtEvent(units.Time(0).Add(600*units.Nanosecond), "victim", b)
		b.victim.A = 0
		m := ab.Send(units.Time(0).Add(lag), "pull", b)
		m.A = -2
		m2 := ab.Send(units.Time(0).Add(2*lag), "cancel", b)
		m2.A = -1
		// Second victim: canceled by a third message before it can fire.
		b2 := &bouncer{name: "c", eng: coord.Shard(placeB).Eng, lag: lag}
		b2.victim = b2.eng.AtEvent(units.Time(0).Add(700*units.Nanosecond), "victim2", b2)
		b2.victim.A = 0
		m3 := ab.Send(units.Time(0).Add(3*lag), "cancel2", b2)
		m3.A = -1
		coord.RunUntil(end)
		return strings.Join(b.log, "\n") + "\n---\n" + strings.Join(b2.log, "\n")
	}
	ref := run(1, 0, false)
	if !strings.Contains(ref, "victim") {
		t.Fatalf("victim never fired in reference run:\n%s", ref)
	}
	if strings.Contains(ref, "victim2") {
		t.Fatalf("canceled victim2 fired anyway:\n%s", ref)
	}
	if !strings.Contains(ref, "b 9.00ns victim 0") {
		t.Fatalf("rescheduled victim did not fire at lag+1ns:\n%s", ref)
	}
	for _, parallel := range []bool{false, true} {
		if got := run(2, 1, parallel); got != ref {
			t.Errorf("cancel/reschedule run (parallel=%v) diverged:\n--- ref ---\n%s\n--- got ---\n%s", parallel, ref, got)
		}
	}
}

// TestRunBefore pins the exclusive-horizon semantics the epoch loop needs:
// events strictly before the horizon run, events at it stay queued, and the
// clock lands exactly on the horizon either way.
func TestRunBefore(t *testing.T) {
	e := New()
	var fired []string
	e.At(units.Time(0).Add(5*units.Nanosecond), "early", func() { fired = append(fired, "early") })
	e.At(units.Time(0).Add(10*units.Nanosecond), "at-horizon", func() { fired = append(fired, "at-horizon") })
	e.RunBefore(units.Time(0).Add(10 * units.Nanosecond))
	if got := strings.Join(fired, ","); got != "early" {
		t.Errorf("RunBefore ran %q, want only the strictly-earlier event", got)
	}
	if e.Now() != units.Time(0).Add(10*units.Nanosecond) {
		t.Errorf("clock at %v, want the horizon", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("%d events pending, want the at-horizon one", e.Pending())
	}
	e.RunBefore(units.Time(0).Add(20 * units.Nanosecond))
	if got := strings.Join(fired, ","); got != "early,at-horizon" {
		t.Errorf("second RunBefore left %q", got)
	}
}

// ticker is a dense synthetic load: a local event every period, except
// inside its quiet interval [quietFrom, quietUntil), where it falls silent.
// Its ticks touch nothing outside the ticker, so each shard's share of the
// load is independent of every other shard.
type ticker struct {
	name                  string
	eng                   *Engine
	period                units.Duration
	quietFrom, quietUntil units.Time
	log                   []string
}

func (k *ticker) HandleEvent(ev *Event) {
	k.log = append(k.log, fmt.Sprintf("%s %v", k.name, k.eng.Now()))
	next := k.eng.Now().Add(k.period)
	if next >= k.quietFrom && next < k.quietUntil {
		next = k.quietUntil
	}
	k.eng.AtEvent(next, "tick", k)
}

// gateRun builds a ping-pong across the last shard plus sixteen tickers
// spread evenly over the shards (period 1ns, so 160 events per 10ns epoch
// outside the quiet interval), runs it to end and returns the coordinator
// and every node's log. With one shard and parallel false it is the
// round-based reference. The gate takes windows of 4 epochs and keeps the
// workers at 64 events per epoch, so the tickers alone decide the mode.
func gateRun(t *testing.T, shards int, parallel bool, quietFrom, quietUntil, end units.Time) (*Coordinator, string) {
	t.Helper()
	const lag = 10 * units.Nanosecond
	coord, a, b := buildPingPong(t, shards, shards-1, lag, 1<<20)
	coord.Parallel = parallel
	coord.window, coord.density = 4, 64
	var ticks []*ticker
	for i := 0; i < 16; i++ {
		k := &ticker{name: fmt.Sprintf("k%d", i), eng: coord.Shard(i * shards / 16).Eng,
			period: units.Nanosecond, quietFrom: quietFrom, quietUntil: quietUntil}
		k.eng.AtEvent(0, "tick", k)
		ticks = append(ticks, k)
	}
	coord.RunUntil(end)
	logs := []string{strings.Join(a.log, "\n"), strings.Join(b.log, "\n")}
	for _, k := range ticks {
		logs = append(logs, strings.Join(k.log, "\n"))
	}
	return coord, strings.Join(logs, "\n---\n")
}

// TestShardGateLeavesWorkersWhenSparse: a permitted run starts on the
// workers, and a ping-pong — at most one event per epoch — hands the rest of
// the run to the calling goroutine after the first window, with the
// reference's bytes.
func TestShardGateLeavesWorkersWhenSparse(t *testing.T) {
	const lag = 7 * units.Nanosecond
	end := units.Time(0).Add(4 * gateWindow * lag)
	ref := pingPongLogs(t, 1, 0, false, lag, end)
	coord, a, b := buildPingPong(t, 2, 1, lag, 40)
	coord.Parallel = true
	coord.RunUntil(end)
	if got := strings.Join(a.log, "\n") + "\n---\n" + strings.Join(b.log, "\n"); got != ref {
		t.Errorf("sparse permitted run diverged:\n--- ref ---\n%s\n--- got ---\n%s", ref, got)
	}
	if coord.workerEpochs != gateWindow || coord.epochs != 4*gateWindow+1 {
		t.Errorf("workers ran %d of %d epochs, want the first window (%d) of %d", coord.workerEpochs, coord.epochs, gateWindow, 4*gateWindow+1)
	}
}

// TestShardGateStaysOnWorkersWhenDense: sixteen tickers give every epoch
// 160 events, above the density the gate asks for, so a permitted run
// never leaves the workers — with the one-shard reference's bytes.
func TestShardGateStaysOnWorkersWhenDense(t *testing.T) {
	end := units.Time(0).Add(400 * units.Nanosecond)
	_, ref := gateRun(t, 1, false, 0, 0, end)
	coord, got := gateRun(t, 4, true, 0, 0, end)
	if got != ref {
		t.Errorf("dense permitted run diverged:\n--- ref ---\n%s\n--- got ---\n%s", ref, got)
	}
	if coord.workerEpochs != coord.epochs || coord.epochs != 41 {
		t.Errorf("workers ran %d of %d epochs, want all 41", coord.workerEpochs, coord.epochs)
	}
}

// TestShardGateSwitchesBothWays: a load that is dense until 200ns, silent
// (bar the ping-pong) until 600ns and dense again until 1000ns. With
// windows of 4 epochs of 10ns the gate decides at each window's end for
// the next: workers through epoch 23 (the first silent window still runs
// on them), the calling goroutine for epochs 24-63 (the last window of
// which is dense again), workers from epoch 64 through the final epoch
// 100 — 24+37 of 101 epochs — with the reference's bytes.
func TestShardGateSwitchesBothWays(t *testing.T) {
	quietFrom, quietUntil := units.Time(0).Add(200*units.Nanosecond), units.Time(0).Add(600*units.Nanosecond)
	end := units.Time(0).Add(1000 * units.Nanosecond)
	_, ref := gateRun(t, 1, false, quietFrom, quietUntil, end)
	coord, got := gateRun(t, 4, true, quietFrom, quietUntil, end)
	if got != ref {
		t.Errorf("dense-sparse-dense run diverged:\n--- ref ---\n%s\n--- got ---\n%s", ref, got)
	}
	if coord.workerEpochs != 24+37 || coord.epochs != 101 {
		t.Errorf("workers ran %d of %d epochs, want 61 of 101", coord.workerEpochs, coord.epochs)
	}
}

// sendStep is one scripted send: on channel ch, due at.
type sendStep struct {
	ch    int
	at    units.Duration
	label string
}

// scripter replays batch ev.A of its script when its event fires.
type scripter struct {
	chans   []*Chan
	to      Handler
	batches [][]sendStep
}

func (s *scripter) HandleEvent(ev *Event) {
	for _, st := range s.batches[ev.A] {
		s.chans[st.ch].Send(units.Time(0).Add(st.at), st.label, s.to)
	}
}

// TestShardExchangeOrder pins the mailbox order after the live-channel
// exchange: channel 1 fills before channel 0 in epoch 0 and sends again in
// epoch 1 (an earlier-due message among them), yet the receiver sees
// (At, channel, seq) order — on two shards and on one shard's self-loops,
// with and without workers.
func TestShardExchangeOrder(t *testing.T) {
	const ns = units.Nanosecond
	batches := [][]sendStep{
		{{1, 25 * ns, "a"}, {0, 25 * ns, "b"}, {1, 25 * ns, "c"}, {0, 31 * ns, "f"}}, // at t=0
		{{1, 21 * ns, "d"}, {1, 25 * ns, "e"}},                                       // at t=11ns
	}
	want := strings.Join([]string{
		"r 21.00ns d 0", "r 25.00ns b 0", "r 25.00ns a 0", "r 25.00ns c 0", "r 25.00ns e 0", "r 31.00ns f 0",
	}, "\n")
	for _, shards := range []int{1, 2} {
		for _, parallel := range []bool{false, true} {
			coord, err := NewCoordinator(shards, 10*ns)
			if err != nil {
				t.Fatal(err)
			}
			coord.Parallel = parallel
			r := &bouncer{name: "r", eng: coord.Shard(shards - 1).Eng}
			s := &scripter{to: r, batches: batches}
			for range 2 {
				ch, err := coord.Channel(0, shards-1, 10*ns)
				if err != nil {
					t.Fatal(err)
				}
				s.chans = append(s.chans, ch)
			}
			eng := coord.Shard(0).Eng
			eng.AtEvent(0, "script", s).A = 0
			eng.AtEvent(units.Time(0).Add(11*ns), "script", s).A = 1
			coord.RunUntil(units.Time(0).Add(100 * ns))
			if got := strings.Join(r.log, "\n"); got != want {
				t.Errorf("shards=%d parallel=%v: delivery order\n%s\nwant\n%s", shards, parallel, got, want)
			}
		}
	}
}

var errShardBoom = errors.New("boom")

// bomb panics when it handles an event.
type bomb struct{}

func (*bomb) HandleEvent(*Event) { panic(errShardBoom) }

// workersRunning reports whether any shard worker goroutine exists.
func workersRunning() bool {
	buf := make([]byte, 1<<20)
	return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("(*Coordinator).startWorkers"))
}

// TestShardWorkerPanic: a handler panic on shard 1 reaches the RunUntil
// caller as the same *ShardPanic — raised on the calling goroutine, on a
// worker, and on the calling goroutine after the gate left the workers —
// and no worker goroutine outlives the run.
func TestShardWorkerPanic(t *testing.T) {
	const lag = 10 * units.Nanosecond
	run := func(parallel bool, at units.Duration) (coord *Coordinator, p *ShardPanic) {
		coord, _, _ = buildPingPong(t, 2, 1, lag, 1<<20)
		coord.Parallel = parallel
		coord.Shard(1).Eng.AtEvent(units.Time(0).Add(at), "bomb", &bomb{})
		defer func() {
			p, _ = recover().(*ShardPanic)
		}()
		coord.RunUntil(units.Time(0).Add(4 * gateWindow * lag))
		return coord, nil
	}
	for _, tc := range []struct {
		name      string
		parallel  bool
		at        units.Duration
		onWorkers bool
	}{
		{"caller", false, 55 * units.Nanosecond, false},
		{"worker", true, 55 * units.Nanosecond, true},
		{"caller-after-gate", true, 3 * gateWindow * lag, false},
	} {
		coord, p := run(tc.parallel, tc.at)
		if p == nil {
			t.Fatalf("%s: RunUntil did not panic with a *ShardPanic", tc.name)
		}
		if p.Shard != 1 || p.Value != errShardBoom || !strings.Contains(string(p.Stack), "(*bomb).HandleEvent") {
			t.Errorf("%s: recovered shard %d value %v, stack\n%s\nwant shard 1, %v and the handler's frame", tc.name, p.Shard, p.Value, p.Stack, errShardBoom)
		}
		if last := coord.workerEpochs == coord.epochs; last != tc.onWorkers {
			t.Errorf("%s: panicking epoch ran on the workers = %v, want %v", tc.name, last, tc.onWorkers)
		}
	}
	// RunUntil waits for every worker to return, so at most their exits
	// are still unwinding.
	for deadline := time.Now().Add(5 * time.Second); workersRunning(); {
		if time.Now().After(deadline) {
			t.Fatal("shard worker goroutines outlived the panicking run")
		}
		runtime.Gosched()
	}
}
