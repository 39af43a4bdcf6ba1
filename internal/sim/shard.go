// Conservative parallel simulation: a Coordinator advances N per-shard
// Engines in lockstep epochs of one lookahead each (the classic
// null-message/barrier insight specialized to barriers).
//
// The contract is determinism by grouping-independence. Simulation objects
// are partitioned onto shards; objects in different shards may interact
// ONLY through cross-shard channels (Chan), whose messages carry a modeled
// latency of at least the coordinator's lookahead. Then:
//
//   - Every message sent during the epoch [t, t+L) is due at or after t+L,
//     so when an epoch opens, every message due inside it has already been
//     exchanged at the preceding barrier. No shard can ever observe an
//     event "from the past" — the conservative guarantee.
//
//   - Messages are inserted into the destination engine sorted by
//     (At, channel id, per-channel seq) — a total order that depends only
//     on what was sent, never on which shard sent it or when the sending
//     shard's engine ran. Channel ids are assigned in construction order,
//     which the topology layer keeps fixed across shard counts.
//
//   - The epoch grid {0, L, 2L, ...} depends only on the lookahead, which
//     the topology layer derives from the link parameters, not from the
//     shard count.
//
// Together these make a run a pure function of (configuration, seed): the
// same objects execute the same events at the same timestamps whether they
// are grouped onto 1, 2 or N shards, and whether an epoch runs on the
// calling goroutine or on the shard workers. The equivalence tests in
// internal/experiments lock this end to end.
package sim

import (
	"fmt"
	"runtime/debug"
	"slices"
	"sync"

	"repro/internal/units"
)

// Msg is a deferred cross-shard event: a typed Handler dispatch (the same
// shape as Event's payload) routed through the destination shard's mailbox
// instead of scheduled directly. The payload fields mirror Event's and are
// copied onto the inserted event verbatim.
type Msg struct {
	At     units.Time
	Label  string
	H      Handler
	Ptr    any
	T0, T1 units.Time
	A, B   int64

	ch  int32  // channel id: the mailbox sort key after At
	seq uint64 // per-channel send counter: the final tie-break
}

// Shard is one engine of a sharded run plus its mailbox of exchanged but
// not yet inserted messages.
type Shard struct {
	ID  int
	Eng *Engine

	pending []Msg // exchanged messages, sorted by (At, ch, seq) when !dirty
	dirty   bool  // pending grew since it was last sorted
	// sent lists this shard's outgoing channels holding messages, in the
	// order their buffers filled. Only the shard's own epoch appends to it
	// and only the coordinator drains it, after the join.
	sent  []*Chan
	fault *ShardPanic // a handler panic contained during the last epoch
	// A worker writes its shard's sent list all through a dense epoch;
	// the pad keeps those writes off the cache lines of the neighbouring
	// Shard, which another worker reads on every Send.
	_ [64]byte
}

// Chan is one direction of one cross-shard coupling: a packet path or a
// credit-return path. Sends append to a buffer owned by the sending shard
// until the next barrier moves it into the destination mailbox, so no lock
// is held on the hot path. A channel's sends are totally ordered by its
// sequence counter; together with the channel id this makes mailbox
// insertion order independent of shard grouping (see the package comment).
type Chan struct {
	id     int32
	seq    uint64
	src    *Shard
	dst    *Shard
	minLag units.Duration
	box    []Msg
}

// Send enqueues a Handler dispatch on the destination shard at absolute
// time at. It returns a pointer for the caller to fill payload fields,
// valid only until the next Send on the same channel (the buffer may move).
// A send closer than the channel's declared latency floor panics: it would
// break the conservative guarantee, not just reorder events.
func (ch *Chan) Send(at units.Time, label string, h Handler) *Msg {
	now := ch.src.Eng.Now()
	if at.Sub(now) < ch.minLag {
		panic(fmt.Sprintf("sim: cross-shard send %q at %v violates the %v lookahead (now %v)", label, at, ch.minLag, now))
	}
	if h == nil {
		panic(fmt.Sprintf("sim: nil handler for cross-shard %q", label))
	}
	if len(ch.box) == 0 {
		ch.src.sent = append(ch.src.sent, ch)
	}
	ch.box = append(ch.box, Msg{At: at, Label: label, H: h, ch: ch.id, seq: ch.seq})
	ch.seq++
	return &ch.box[len(ch.box)-1]
}

// The density gate. Handing an epoch to the shard workers costs a fixed
// handoff (a channel send and a join per shard) that only pays for itself
// when the epoch carries enough events to split across cores. A run
// permitted to use the workers therefore re-decides after every gateWindow
// epochs: the next window runs on the workers only if the last one
// executed at least gateDensity events per epoch, summed over shards. Both
// counts are simulated quantities, so the path a run takes depends only on
// its configuration and seed — and its result on neither.
//
// On a 2-CPU x86 box, four shards of synthetic events costing about 100
// and 190 ns each broke even on the workers at about 380 and 190 events
// per epoch; the registered sharded fabrics sit far to either side (a
// 512-host open-loop sweep about 5 events per epoch, the 512/1024-host
// incast about 8.5, the 512-host all-to-all about 1100).
const (
	gateWindow  = 256
	gateDensity = 256
)

// Coordinator synchronizes shards over a fixed epoch grid.
type Coordinator struct {
	shards    []*Shard
	nchans    int32
	lookahead units.Duration
	// Parallel permits the shard workers: one persistent goroutine per
	// shard, fed an epoch at a time and joined before the exchange. A
	// permitted run starts on the workers and keeps them only while epochs
	// are dense (see gateWindow); otherwise, and always when false (the
	// default), shards run each epoch in ID order on the calling
	// goroutine. Results are identical either way; the race detector over
	// the workers is part of `make test-shard`.
	Parallel bool

	// window and density are the gate's parameters (gateWindow and
	// gateDensity; tests shrink them). epochs counts the epochs run and
	// workerEpochs those the workers ran.
	window, density      uint64
	epochs, workerEpochs uint64

	interrupt func() bool
	aborted   bool
}

// ShardPanic is the value RunUntil panics with when an event handler
// panicked during an epoch: the handler's own value and the stack it
// panicked on. The shard contains the panic on whichever goroutine ran
// the epoch, and the coordinator re-raises it on RunUntil's caller once
// every shard has finished the epoch, so a recover around RunUntil sees
// the same value whether or not workers ran the epoch. Where several
// shards panicked in one epoch, the lowest shard ID wins.
type ShardPanic struct {
	Shard int    // ID of the shard whose handler panicked
	Value any    // the handler's panic value
	Stack []byte // the panicking goroutine's stack, from debug.Stack
}

// Error names the shard and carries the handler's value and stack, so a
// caller that formats the recovered value, or a process that dies of it,
// still shows where the handler panicked.
func (p *ShardPanic) Error() string {
	return fmt.Sprintf("sim: shard %d: %v\n%s", p.Shard, p.Value, p.Stack)
}

// SetInterrupt installs an external abort check on the coordinator and on
// every shard engine. Engines poll it inside their epochs (so even a
// single long epoch aborts promptly); the coordinator additionally checks
// it at each barrier and abandons the run. An aborted cluster is mid-epoch
// and possibly out of step across shards — the caller must discard it, the
// same contract as Engine.SetInterrupt. Every worker goroutine is joined
// before RunUntil returns, aborted or not.
func (c *Coordinator) SetInterrupt(f func() bool) {
	c.interrupt = f
	c.aborted = false
	for _, s := range c.shards {
		s.Eng.SetInterrupt(f)
	}
}

// Aborted reports whether the last RunUntil was abandoned by the
// interrupt check.
func (c *Coordinator) Aborted() bool { return c.aborted }

// interrupted is the coordinator's own barrier-time check.
func (c *Coordinator) interrupted() bool {
	if c.interrupt != nil && c.interrupt() {
		c.aborted = true
		return true
	}
	for _, s := range c.shards {
		if s.Eng.Aborted() {
			c.aborted = true
			return true
		}
	}
	return false
}

// NewCoordinator builds n shards advancing in epochs of the given
// lookahead. Zero (or negative) lookahead is rejected: a zero-latency cut
// admits no conservative window at all, so such a link cannot be sharded.
func NewCoordinator(n int, lookahead units.Duration) (*Coordinator, error) {
	if n < 1 {
		return nil, fmt.Errorf("sim: coordinator needs at least one shard, got %d", n)
	}
	if lookahead <= 0 {
		return nil, fmt.Errorf("sim: conservative sharding needs positive lookahead, got %v", lookahead)
	}
	c := &Coordinator{lookahead: lookahead, window: gateWindow, density: gateDensity}
	for i := 0; i < n; i++ {
		c.shards = append(c.shards, &Shard{ID: i, Eng: New()})
	}
	return c, nil
}

// NumShards reports the shard count.
func (c *Coordinator) NumShards() int { return len(c.shards) }

// Shard returns shard i.
func (c *Coordinator) Shard(i int) *Shard { return c.shards[i] }

// Lookahead reports the epoch length.
func (c *Coordinator) Lookahead() units.Duration { return c.lookahead }

// Channel opens a message channel from shard src to shard dst (src == dst
// is the degenerate self-loop a one-shard run uses, so the message path —
// and therefore the schedule — does not depend on the shard count). minLag
// declares the channel's modeled latency floor; it must cover the
// coordinator's lookahead or the epoch grid would be unsound.
func (c *Coordinator) Channel(src, dst int, minLag units.Duration) (*Chan, error) {
	if minLag < c.lookahead {
		return nil, fmt.Errorf("sim: channel latency %v below the coordinator lookahead %v", minLag, c.lookahead)
	}
	ch := &Chan{id: c.nchans, src: c.shards[src], dst: c.shards[dst], minLag: minLag}
	c.nchans++
	return ch, nil
}

// RunUntil advances every shard to absolute time end: epochs of one
// lookahead each, a barrier and message exchange between epochs, and a
// final partial epoch that executes events at exactly end (matching
// Engine.RunUntil's inclusive deadline). The one fork is where an epoch
// executes: on the shard workers while Parallel permits them and the
// density gate keeps them, else in ID order on the calling goroutine. A
// handler panic is re-raised here as a *ShardPanic after the epoch's
// join; the cluster is then mid-epoch and must be discarded.
func (c *Coordinator) RunUntil(end units.Time) {
	start := c.shards[0].Eng.Now()
	for _, s := range c.shards {
		if s.Eng.Now() != start {
			panic("sim: coordinator shards out of step")
		}
	}
	var w *workers
	if c.Parallel && len(c.shards) > 1 {
		w = c.startWorkers()
		defer w.stop()
	}
	onWorkers := w != nil
	mark, n := c.processed(), uint64(0)
	for t := start; ; {
		horizon, final := c.nextHorizon(t, end)
		c.epochs++
		if onWorkers {
			c.workerEpochs++
			w.run(horizon, final)
		} else {
			for _, s := range c.shards {
				s.runEpoch(horizon, final)
			}
		}
		for _, s := range c.shards {
			if s.fault != nil {
				panic(s.fault)
			}
		}
		if c.interrupted() {
			return
		}
		c.exchange()
		if final {
			return
		}
		t = horizon
		if w == nil {
			continue
		}
		if n++; n == c.window {
			ran := c.processed()
			onWorkers = ran-mark >= c.window*c.density
			mark, n = ran, 0
		}
	}
}

// processed sums the events every shard has executed.
func (c *Coordinator) processed() uint64 {
	var n uint64
	for _, s := range c.shards {
		n += s.Eng.Processed()
	}
	return n
}

// nextHorizon computes the end of the epoch opening at t; final epochs run
// inclusively to end.
func (c *Coordinator) nextHorizon(t, end units.Time) (horizon units.Time, final bool) {
	h := t.Add(c.lookahead)
	if h > end {
		return end, true
	}
	return h, false
}

// epochCmd is one barrier round handed to a shard worker.
type epochCmd struct {
	horizon units.Time
	final   bool
}

// workers are the per-shard goroutines of one permitted RunUntil. The
// coordinator alone touches mailboxes and sent lists, and only between
// epochs; the command send and the join order every coordinator access
// strictly before or after a worker's epoch, so running on the workers is
// race-free by construction (and `go test -race` checks the construction).
// Between dense windows the workers wait on their command channels while
// the coordinator runs the shards itself, under the same ordering.
type workers struct {
	cmds []chan epochCmd
	join sync.WaitGroup // one Done per shard per epoch
	exit sync.WaitGroup // one Done per worker when it returns
}

// startWorkers starts one worker per shard; stop ends them.
func (c *Coordinator) startWorkers() *workers {
	w := &workers{cmds: make([]chan epochCmd, len(c.shards))}
	w.exit.Add(len(c.shards))
	for i, s := range c.shards {
		w.cmds[i] = make(chan epochCmd)
		go func(s *Shard, in <-chan epochCmd) {
			defer w.exit.Done()
			for ep := range in {
				s.runEpoch(ep.horizon, ep.final)
				w.join.Done()
			}
		}(s, w.cmds[i])
	}
	return w
}

// run executes one epoch on every worker and waits for all of them.
func (w *workers) run(horizon units.Time, final bool) {
	w.join.Add(len(w.cmds))
	for _, in := range w.cmds {
		in <- epochCmd{horizon, final}
	}
	w.join.Wait()
}

// stop closes every command channel and waits until each worker returned.
func (w *workers) stop() {
	for _, in := range w.cmds {
		close(in)
	}
	w.exit.Wait()
}

// runEpoch inserts the messages due in the epoch and executes it: events
// strictly before the horizon, or inclusively for the final epoch. A
// panicking handler is contained in s.fault, so the epoch always returns
// to the join.
func (s *Shard) runEpoch(horizon units.Time, final bool) {
	defer s.contain()
	s.deliverDue(horizon, final)
	if final {
		s.Eng.RunUntil(horizon)
	} else {
		s.Eng.RunBefore(horizon)
	}
}

// contain records a panic raised during the shard's epoch.
func (s *Shard) contain() {
	if r := recover(); r != nil {
		s.fault = &ShardPanic{Shard: s.ID, Value: r, Stack: debug.Stack()}
	}
}

// deliverDue schedules every pending message with At < horizon (<= for the
// final, inclusive epoch) on the shard's engine. A message due at exactly
// the epoch's opening boundary is scheduled at now, after the events the
// previous epoch left at that timestamp — the same relative order a
// one-shard run produces, because exchange always happens after the epoch
// that sent the message.
func (s *Shard) deliverDue(horizon units.Time, inclusive bool) {
	if s.dirty {
		slices.SortFunc(s.pending, msgCompare)
		s.dirty = false
	}
	n := 0
	for n < len(s.pending) {
		at := s.pending[n].At
		if at > horizon || (at == horizon && !inclusive) {
			break
		}
		n++
	}
	for i := 0; i < n; i++ {
		m := &s.pending[i]
		ev := s.Eng.AtEvent(m.At, m.Label, m.H)
		ev.Ptr, ev.T0, ev.T1, ev.A, ev.B = m.Ptr, m.T0, m.T1, m.A, m.B
	}
	if n > 0 {
		rest := copy(s.pending, s.pending[n:])
		clear(s.pending[rest:]) // drop payload references
		s.pending = s.pending[:rest]
	}
}

// exchange moves the sends of every channel on a shard's sent list into
// the channel's destination mailbox; no other channel holds messages, so
// the barrier costs per message, not per channel. The mailbox is resorted
// lazily on the next delivery; (At, ch, seq) is a total order, so the
// order in which channels are drained is irrelevant.
func (c *Coordinator) exchange() {
	for _, s := range c.shards {
		for _, ch := range s.sent {
			d := ch.dst
			d.pending = append(d.pending, ch.box...)
			d.dirty = true
			clear(ch.box) // drop payload references
			ch.box = ch.box[:0]
		}
		s.sent = s.sent[:0]
	}
}

// msgCompare orders mailbox messages by (At, channel, seq).
func msgCompare(a, b Msg) int {
	switch {
	case a.At != b.At:
		if a.At < b.At {
			return -1
		}
		return 1
	case a.ch != b.ch:
		return int(a.ch) - int(b.ch)
	case a.seq != b.seq:
		if a.seq < b.seq {
			return -1
		}
		return 1
	}
	return 0
}
