// Package sim implements the discrete-event simulation engine underneath
// the InfiniBand fabric model.
//
// The engine is a classic calendar: events are closures scheduled at
// absolute picosecond timestamps and executed in time order. Two properties
// matter for reproducing the paper's measurements:
//
//   - Determinism. Ties (events at the same timestamp) execute in the order
//     they were scheduled (FIFO), so a run is a pure function of its inputs.
//   - Exactness. Timestamps are integers; there is no floating-point clock
//     drift between, say, a link's serialization completion and the credit
//     return it triggers.
//
// The calendar is a hierarchical timing wheel (see wheel.go): 4.1 ns tick
// buckets across four geometrically coarsening levels that reach 68.7 ms,
// with a 4-ary min-heap (eventQueue) holding far-future outliers, plus an
// event free list. Nearly every delay the fabric schedules — propagation,
// serialization, credit returns, engine occupancy — falls within the
// wheel's first levels, so the hot wake/kick paths in the NIC and switch
// models — which constantly pull an already-pending evaluation to an
// earlier time — cost O(1) bucket moves and zero allocations via
// Reschedule.
//
// Event lifetime: a *Event returned by At/After is owned by the caller only
// while the event is pending. Once it fires or is canceled, the engine
// recycles the Event through the free list and the pointer must not be
// retained or canceled again after any later At/After call, which may have
// reused it. The idiomatic holder pattern clears its reference as the first
// statement of the event body (see the wake methods in packages ibswitch
// and rnic).
//
// # Typed events
//
// Closures are convenient but each one is a heap allocation, and the
// per-packet paths (link delivery, credit returns, NIC completions, switch
// arbiter wake-ups) schedule millions of them. AtEvent/AfterEvent schedule
// against a Handler interface instead: the Event itself carries a small
// inline payload (a pointer, two timestamps, two integers) that the handler
// decodes in HandleEvent. Because the handler is a long-lived object and the
// payload lives inside the pooled Event, a typed schedule performs zero
// allocations in steady state. See DESIGN.md "Hot-path memory discipline"
// for the payload ownership contract.
package sim

import (
	"fmt"

	"repro/internal/units"
)

// Handler consumes typed events scheduled with AtEvent/AfterEvent. The
// payload fields of ev are valid only for the duration of the call: the
// engine recycles the event (clearing Ptr) as soon as HandleEvent returns,
// so implementations must copy out anything they need to retain.
type Handler interface {
	HandleEvent(ev *Event)
}

// Event is a scheduled action: either a closure (At/After) or a Handler
// dispatch with an inline payload (AtEvent/AfterEvent).
type Event struct {
	at    units.Time
	seq   uint64 // tie-break: FIFO among equal timestamps
	fn    func()
	h     Handler
	index int   // slot within the wheel bucket, drain buffer, or far heap; -1 once popped or canceled
	lvl   int8  // location code: wheel level, locDrain, or locFar (see wheel.go)
	bkt   int16 // wheel bucket index (meaningful for wheel levels only)
	label string

	// Typed payload, interpreted by the Handler. Callers of
	// AtEvent/AfterEvent fill these on the returned event; their meaning is
	// private to the scheduling site. Ptr is cleared on recycle so a pooled
	// event never pins a packet.
	Ptr    any
	T0, T1 units.Time
	A, B   int64
}

// Time reports when the event fires.
func (e *Event) Time() units.Time { return e.at }

// Label reports the diagnostic label given at scheduling time.
func (e *Event) Label() string { return e.label }

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct with New.
type Engine struct {
	now     units.Time
	queue   wheel
	free    []*Event
	seq     uint64
	ran     uint64
	stopped bool
	label   string
	// Trace, when non-nil, is invoked before each event executes. Used by
	// debugging tools and the engine's own tests.
	Trace func(at units.Time, label string)

	// interrupt, when non-nil, is polled every interruptStride events by
	// RunUntil/RunBefore; returning true aborts the run (see SetInterrupt).
	interrupt func() bool
	poll      int
	aborted   bool
}

// interruptStride is how many events execute between interrupt polls. The
// poll itself (typically a context.Context.Err call) costs far more than an
// event, so it is amortized; when no interrupt is installed the run loops
// pay only a nil check per event.
const interruptStride = 4096

// New returns an empty engine at time zero.
func New() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() units.Time { return e.now }

// SetLabel names the engine for diagnostics (shard id in sharded runs).
// Invariant-violation reports include it so a failure in a parallel run
// says which shard tripped.
func (e *Engine) SetLabel(label string) { e.label = label }

// Label returns the diagnostic name set with SetLabel ("" if unset).
func (e *Engine) Label() string { return e.label }

// Processed reports how many events have executed.
func (e *Engine) Processed() uint64 { return e.ran }

// Pending reports how many events are scheduled but not yet executed.
func (e *Engine) Pending() int { return e.queue.len() }

// Calendar reports how much sorting, cascading and far-heap work the
// calendar has done since New (see CalendarStats).
func (e *Engine) Calendar() CalendarStats { return e.queue.stats }

// alloc takes an Event from the free list, or makes one.
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &Event{}
}

// release returns a fired or canceled Event to the free list.
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	ev.h = nil
	ev.label = ""
	ev.Ptr = nil
	e.free = append(e.free, ev)
}

// At schedules fn to run at absolute time at. Scheduling in the past is a
// programming error and panics, because it would silently corrupt causality.
func (e *Engine) At(at units.Time, label string, fn func()) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v, before now %v", label, at, e.now))
	}
	ev := e.alloc()
	ev.at = at
	ev.seq = e.seq
	ev.fn = fn
	ev.label = label
	e.seq++
	e.queue.push(ev)
	return ev
}

// After schedules fn to run d after the current time. A delay so large
// that now+d overflows int64 picoseconds (e.g. an exponentially backed-off
// ack timeout armed near the horizon) saturates to units.MaxTime instead
// of wrapping negative — the event is effectively "never", which is the
// only sensible meaning of a timestamp the clock cannot represent.
func (e *Engine) After(d units.Duration, label string, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for %q", d, label))
	}
	at := e.now.Add(d)
	if at < e.now {
		at = units.MaxTime
	}
	return e.At(at, label, fn)
}

// AtEvent schedules h.HandleEvent to run at absolute time at, without
// capturing a closure. The returned event's payload fields (Ptr, T0, T1, A,
// B) are zeroed; the caller fills them before the engine next runs. Payload
// assignment cannot reorder the event — ordering is by (time, seq) only.
func (e *Engine) AtEvent(at units.Time, label string, h Handler) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v, before now %v", label, at, e.now))
	}
	if h == nil {
		panic(fmt.Sprintf("sim: nil handler for %q", label))
	}
	ev := e.alloc()
	ev.at = at
	ev.seq = e.seq
	ev.h = h
	ev.label = label
	ev.T0, ev.T1, ev.A, ev.B = 0, 0, 0, 0
	e.seq++
	e.queue.push(ev)
	return ev
}

// AfterEvent schedules h.HandleEvent to run d after the current time. Like
// After, an overflowing deadline saturates to units.MaxTime.
func (e *Engine) AfterEvent(d units.Duration, label string, h Handler) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for %q", d, label))
	}
	at := e.now.Add(d)
	if at < e.now {
		at = units.MaxTime
	}
	return e.AtEvent(at, label, h)
}

// Cancel removes a scheduled event. Canceling an already-fired or
// already-canceled event is a no-op (but see the package comment: the
// pointer must not be used once a later At/After may have recycled it).
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.index < 0 {
		return
	}
	e.queue.remove(ev)
	e.release(ev)
}

// Reschedule moves a pending event to a new firing time. It is equivalent
// to Cancel followed by At with the same fn and label — including the FIFO
// tie rule: the moved event orders as the most recently scheduled among
// equal timestamps — but reuses the queue entry, costing an O(1) bucket
// move (often nothing at all, when the new time maps to the same wheel
// bucket) and no allocation. Rescheduling an event that already fired or
// was canceled is a programming error and panics.
func (e *Engine) Reschedule(ev *Event, at units.Time) {
	if ev == nil || ev.index < 0 {
		panic("sim: rescheduling an event that is not pending")
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: rescheduling %q at %v, before now %v", ev.label, at, e.now))
	}
	ev.at = at
	ev.seq = e.seq
	e.seq++
	e.queue.move(ev)
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// SetInterrupt installs (or, with nil, removes) an external abort check:
// RunUntil and RunBefore poll f every interruptStride events and return
// early — without advancing the clock to the deadline — when it reports
// true. The check is how a cancelled context.Context or an expired per-job
// deadline reaches into a long simulation without the engine importing
// either concept. An aborted run leaves the fabric mid-flight; the caller
// must treat its state as unusable and discard the result (Aborted reports
// whether that happened).
func (e *Engine) SetInterrupt(f func() bool) {
	e.interrupt = f
	e.poll = interruptStride
	e.aborted = false
}

// Aborted reports whether the last RunUntil/RunBefore returned early
// because the interrupt check fired.
func (e *Engine) Aborted() bool { return e.aborted }

// interrupted amortizes the interrupt poll: it decrements the stride
// counter and consults the check only when it reaches zero.
func (e *Engine) interrupted() bool {
	if e.poll--; e.poll > 0 {
		return false
	}
	e.poll = interruptStride
	if e.interrupt() {
		e.aborted = true
		return true
	}
	return false
}

// Step executes the single earliest pending event. It reports false when no
// events remain.
func (e *Engine) Step() bool {
	if e.queue.len() == 0 {
		return false
	}
	ev := e.queue.pop()
	if ev.at < e.now {
		panic("sim: time went backwards")
	}
	e.now = ev.at
	if e.Trace != nil {
		e.Trace(ev.at, ev.label)
	}
	e.ran++
	if ev.fn != nil {
		ev.fn()
	} else {
		ev.h.HandleEvent(ev)
	}
	// Recycled only after the body returns, so a handler canceling or
	// inspecting the event that invoked it observes a stable (fired) state.
	e.release(ev)
	return true
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline. Events scheduled beyond the deadline remain queued.
// An installed interrupt check (SetInterrupt) can abort the run early, in
// which case the clock is NOT advanced to the deadline.
func (e *Engine) RunUntil(deadline units.Time) {
	e.stopped = false
	for !e.stopped {
		if e.queue.len() == 0 || e.queue.min().at > deadline {
			break
		}
		if e.interrupt != nil && e.interrupted() {
			return
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunBefore executes events with timestamps strictly before horizon, then
// advances the clock to the horizon. The shard coordinator runs each
// non-final epoch with it: events at exactly the horizon belong to the next
// epoch, after the barrier has exchanged any cross-shard messages due at
// that same instant (see shard.go).
func (e *Engine) RunBefore(horizon units.Time) {
	e.stopped = false
	for !e.stopped {
		if e.queue.len() == 0 || e.queue.min().at >= horizon {
			break
		}
		if e.interrupt != nil && e.interrupted() {
			return
		}
		e.Step()
	}
	if e.now < horizon {
		e.now = horizon
	}
}

// RunFor executes events within the next d of simulated time.
func (e *Engine) RunFor(d units.Duration) {
	e.RunUntil(e.now.Add(d))
}

// eventQueue is an index-tracked 4-ary min-heap ordered by (time, seq).
// Four-way branching halves the depth of a binary heap, which pays off in
// sift-down — the dominant operation of a drain-heavy calendar — at the
// price of up to three extra comparisons per level over elements that
// share a cache line.
//
// It was the engine's calendar through PR 3 and now serves two roles: the
// timing wheel's far-future overflow structure (events beyond the top
// level's reach, where O(log n) on a handful of long timers is
// irrelevant), and the mid-tier baseline in queue_bench_test.go — the
// wheel is benchmarked against both this heap and the seed's
// container/heap engine.
type eventQueue struct {
	events []*Event
}

func (q *eventQueue) len() int { return len(q.events) }

func (q *eventQueue) min() *Event { return q.events[0] }

func eventLess(a, b *Event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (q *eventQueue) push(ev *Event) {
	ev.index = len(q.events)
	q.events = append(q.events, ev)
	q.up(ev.index)
}

func (q *eventQueue) pop() *Event {
	root := q.events[0]
	n := len(q.events) - 1
	last := q.events[n]
	q.events[n] = nil
	q.events = q.events[:n]
	if n > 0 {
		last.index = 0
		q.events[0] = last
		q.down(0)
	}
	root.index = -1
	return root
}

// remove deletes the event at heap position i.
func (q *eventQueue) remove(i int) {
	ev := q.events[i]
	n := len(q.events) - 1
	last := q.events[n]
	q.events[n] = nil
	q.events = q.events[:n]
	if i < n {
		last.index = i
		q.events[i] = last
		q.fix(i)
	}
	ev.index = -1
}

// fix restores heap order at position i after its key changed in either
// direction.
func (q *eventQueue) fix(i int) {
	if !q.up(i) {
		q.down(i)
	}
}

// up sifts position i toward the root, reporting whether it moved.
func (q *eventQueue) up(i int) bool {
	ev := q.events[i]
	moved := false
	for i > 0 {
		p := (i - 1) / 4
		if !eventLess(ev, q.events[p]) {
			break
		}
		q.events[i] = q.events[p]
		q.events[i].index = i
		i = p
		moved = true
	}
	q.events[i] = ev
	ev.index = i
	return moved
}

// down sifts position i toward the leaves.
func (q *eventQueue) down(i int) {
	ev := q.events[i]
	n := len(q.events)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if eventLess(q.events[c], q.events[best]) {
				best = c
			}
		}
		if !eventLess(q.events[best], ev) {
			break
		}
		q.events[i] = q.events[best]
		q.events[i].index = i
		i = best
	}
	q.events[i] = ev
	ev.index = i
}
