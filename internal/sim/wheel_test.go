package sim

// Tests for the timing-wheel calendar: deterministic edge cases around
// bucket and level boundaries, cascades, the far-future heap, and a
// cross-implementation property test that drives the wheel-backed engine
// and a 4-ary-heap reference through identical operation sequences — the
// cross-implementation extension of TestPropertyScheduleCancelRescheduleMix.

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/units"
)

const tickSpan = units.Duration(1) << tickBits // one level-0 bucket

// horizon returns how far ahead of the current tick level lvl reaches:
// numBuckets buckets of 2^(lvl*levelBits) ticks each.
func horizon(lvl int) units.Duration {
	return units.Duration(numBuckets) << (tickBits + lvl*levelBits)
}

var (
	wheelReach = horizon(numLevels - 1) // the top level's reach
	farBeyond  = 2 * wheelReach         // safely past the wheel
)

// runOrder drains the engine and returns the firing order of the labels.
func runOrder(e *Engine) []string {
	var got []string
	e.Trace = func(_ units.Time, label string) { got = append(got, label) }
	e.Run()
	e.Trace = nil
	return got
}

func assertOrder(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// Events landing exactly on bucket and level boundaries must still fire in
// (time, seq) order: the boundary tick belongs to the next bucket, never
// both.
func TestWheelBucketBoundaryEvents(t *testing.T) {
	e := New()
	bounds := []units.Duration{0, 1, tickSpan - 1, tickSpan, tickSpan + 1}
	for lvl := 0; lvl < numLevels; lvl++ {
		h := horizon(lvl)
		bounds = append(bounds, h-1, h, h+1)
	}
	// Schedule in a scrambled order; expect ascending firing times with
	// FIFO among the duplicates created below.
	var want []units.Time
	for _, d := range bounds {
		at := units.Time(d)
		e.At(at, "b", func() {})
		e.At(at, "b", func() {}) // same-timestamp pair: FIFO tie inside a bucket
		want = append(want, at, at)
	}
	var got []units.Time
	e.Trace = func(at units.Time, _ string) { got = append(got, at) }
	e.Run()
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("time went backwards at %d: %v", i, got)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", e.Pending())
	}
}

// Reschedule must work across every pair of wheel levels and the far heap,
// in both directions.
func TestWheelRescheduleAcrossLevels(t *testing.T) {
	delays := []units.Duration{1} // level 0
	for lvl := 1; lvl < numLevels; lvl++ {
		delays = append(delays, horizon(lvl-1)+5000) // level lvl
	}
	delays = append(delays, farBeyond) // far heap
	for _, from := range delays {
		for _, to := range delays {
			e := New()
			e.At(units.Time(to)+1, "marker", func() {})
			ev := e.At(units.Time(from), "moved", func() {})
			e.Reschedule(ev, units.Time(to))
			got := runOrder(e)
			want := []string{"moved", "marker"}
			assertOrder(t, got, want)
		}
	}
}

// Rescheduling into the tick currently being served must interleave with
// the already-sorted drain buffer.
func TestWheelRescheduleIntoCurrentTick(t *testing.T) {
	e := New()
	base := units.Time(10 * tickSpan)
	var pulled *Event
	e.At(base, "first", func() {
		// Now serving base's tick; pull a far event into this same tick,
		// after "second" (same tick) but before "third".
		e.Reschedule(pulled, base+2)
	})
	e.At(base+1, "second", func() {})
	e.At(base+3, "third", func() {})
	pulled = e.At(units.Time(farBeyond), "pulled", func() {})
	assertOrder(t, runOrder(e), []string{"first", "second", "pulled", "third"})
}

// RunUntil's peek can settle the wheel onto a tick past the clock. If the
// peeked event is then canceled, events scheduled into that tick go to its
// bucket; one scheduled earlier reopens the drain buffer, and a later one
// at the peeked tick must still fire after the bucketed ones (found by
// FuzzWheelOps).
func TestWheelPeekedTickKeepsOrder(t *testing.T) {
	e := New()
	peek := units.Time(wheelReach / 4)
	peeked := e.At(peek, "peeked", func() {})
	e.RunUntil(48) // peeks: the wheel settles onto peek's tick
	e.Cancel(peeked)
	e.At(peek+47, "x", func() {})
	e.At(48, "y", func() {})
	e.At(peek+47, "z", func() {})
	e.At(peek+46, "w", func() {})
	assertOrder(t, runOrder(e), []string{"y", "w", "x", "z"})
}

// Canceling events that have cascaded from an upper level into lower
// buckets (and events still ahead of the cascade) must remove exactly the
// right events.
func TestWheelCancelAfterCascade(t *testing.T) {
	e := New()
	// A level-1 bucket holding several events; popping an early event
	// advances the wheel and cascades them to level 0.
	early := units.Time(5)
	inL1 := units.Time(horizon(0) + 10*tickSpan)
	var victims []*Event
	e.At(early, "early", func() {})
	for i := 0; i < 4; i++ {
		at := inL1.Add(units.Duration(i) * tickSpan)
		label := "keep"
		if i%2 == 1 {
			label = "victim"
		}
		ev := e.At(at, label, func() {})
		if i%2 == 1 {
			victims = append(victims, ev)
		}
	}
	if !e.Step() { // fires "early"; serving it does not yet cascade level 1
		t.Fatal("no first event")
	}
	// Force the cascade by peeking: min() settles onto the level-1 bucket.
	if e.queue.min().label == "" {
		t.Fatal("unexpected empty label")
	}
	for _, v := range victims {
		e.Cancel(v)
	}
	assertOrder(t, runOrder(e), []string{"keep", "keep"})
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d", e.Pending())
	}
}

// Events beyond the top level's reach overflow into the far heap and must
// cascade back in firing order, including events scheduled after the wheel
// has advanced (whose reach has shifted).
func TestWheelFarFutureOverflow(t *testing.T) {
	e := New()
	var want []string
	e.At(units.Time(farBeyond)+10, "far2", func() {})
	e.At(units.Time(farBeyond), "far1", func() {})
	e.At(5, "near", func() {
		// Scheduled while running: lands between the near event and the
		// far ones, in a region the wheel has not yet reached.
		e.After(horizon(numLevels-2), "mid", func() {})
	})
	if got := e.Calendar().FarPushes; got != 2 {
		t.Fatalf("FarPushes = %d after scheduling far1 and far2, want 2", got)
	}
	want = []string{"near", "mid", "far1", "far2"}
	assertOrder(t, runOrder(e), want)
	if got := e.Calendar().FarPushes; got != 2 {
		t.Fatalf("FarPushes = %d after the run, want 2: mid must stay in the wheel", got)
	}
}

// nopHandler is a trivial Handler for AfterEvent tests.
type nopHandler struct{}

func (nopHandler) HandleEvent(*Event) {}

// A delay so large that now+d overflows int64 picoseconds must saturate to
// units.MaxTime — landing in the far heap as "never" — instead of wrapping
// negative and tripping the schedule-in-the-past panic. Exponentially
// backed-off ack timeouts reach this regime after a few dozen doublings.
func TestWheelAfterOverflowClamps(t *testing.T) {
	e := New()
	maxD := units.Duration(math.MaxInt64)
	// From now = 0 the maximal delay lands exactly on the horizon, no wrap.
	if ev := e.After(maxD, "clamped1", func() {}); ev.at != units.MaxTime {
		t.Fatalf("After(maxD) at t=0 landed at %v, want units.MaxTime", ev.at)
	}
	e.At(5, "near", func() {
		// From a nonzero now the same delay wraps negative without the clamp.
		if ev := e.After(maxD, "clamped2", func() {}); ev.at != units.MaxTime {
			t.Errorf("mid-run After overflow landed at %v, want units.MaxTime", ev.at)
		}
		if ev := e.AfterEvent(maxD, "clamped3", nopHandler{}); ev.at != units.MaxTime {
			t.Errorf("mid-run AfterEvent overflow landed at %v, want units.MaxTime", ev.at)
		}
	})
	// Clamped events share units.MaxTime and fire FIFO after everything else.
	assertOrder(t, runOrder(e), []string{"near", "clamped1", "clamped2", "clamped3"})
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", e.Pending())
	}
}

// Pending must track membership exactly through pushes, pops, cancels,
// reschedules, cascades and far-heap spills.
func TestWheelPendingConsistency(t *testing.T) {
	e := New()
	src := rng.New(3)
	var live []*Event
	count := 0
	for op := 0; op < 5000; op++ {
		switch src.Intn(5) {
		case 0, 1: // schedule at a horizon that exercises every level
			var d units.Duration
			if lvl := src.Intn(numLevels + 1); lvl < numLevels {
				d = units.Duration(src.Intn(int(horizon(lvl))))
			} else {
				d = farBeyond + units.Duration(src.Intn(1<<40))
			}
			live = append(live, e.After(d, "p", nopFn))
			count++
		case 2: // cancel
			if len(live) == 0 {
				continue
			}
			i := src.Intn(len(live))
			e.Cancel(live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			count--
		case 3: // reschedule
			if len(live) == 0 {
				continue
			}
			i := src.Intn(len(live))
			e.Reschedule(live[i], e.Now().Add(units.Duration(src.Intn(int(wheelReach)))))
		case 4: // pop
			if count == 0 {
				continue
			}
			before := e.Now()
			if !e.Step() {
				t.Fatalf("op %d: Step found nothing with count=%d", op, count)
			}
			if e.Now() < before {
				t.Fatalf("op %d: time went backwards", op)
			}
			count--
			// Live list may hold the popped event; purge stale entries
			// lazily by index check.
			for j := 0; j < len(live); {
				if live[j].index < 0 {
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
				} else {
					j++
				}
			}
		}
		if e.Pending() != count {
			t.Fatalf("op %d: Pending = %d, want %d", op, e.Pending(), count)
		}
	}
}

// heapCal is the reference calendar: the retained 4-ary heap driven with
// the engine's exact (time, seq) discipline.
type heapCal struct {
	q   eventQueue
	seq uint64
}

func (h *heapCal) at(at units.Time, id int) *Event {
	ev := &Event{at: at, seq: h.seq, A: int64(id)}
	h.seq++
	h.q.push(ev)
	return ev
}

func (h *heapCal) cancel(ev *Event) { h.q.remove(ev.index) }

func (h *heapCal) reschedule(ev *Event, at units.Time) {
	ev.at = at
	ev.seq = h.seq
	h.seq++
	h.q.fix(ev.index)
}

// Property: any mix of At / After / Cancel / Reschedule / pop produces the
// same firing sequence — same-tick ties and far-future cascades included —
// on the wheel-backed engine and the heap reference.
func TestPropertyWheelMatchesHeapReference(t *testing.T) {
	f := func(ops []uint32) bool {
		e := New()
		h := &heapCal{}
		type pair struct {
			ev  *Event // engine event
			ref *Event // reference event
		}
		var live []pair
		var got, want []int64
		nextID := 0
		// delayFor spreads ops across every wheel level, bucket boundaries
		// and the far horizon.
		delayFor := func(op uint32) units.Duration {
			switch k := int(op>>3) % (numLevels + 3); {
			case k == 0:
				return units.Duration(op % uint32(tickSpan)) // same/near tick
			case k <= numLevels: // level k-1
				return (units.Duration(op) << (6 * (k - 1))) % horizon(k-1)
			case k == numLevels+1: // exact bucket boundaries
				return (units.Duration(op%512) << tickBits)
			default: // far heap
				return wheelReach + (units.Duration(op) << 10)
			}
		}
		for _, op := range ops {
			switch op % 4 {
			case 0, 1: // schedule
				at := e.Now().Add(delayFor(op))
				id := nextID
				nextID++
				ev := e.At(at, "x", func() { got = append(got, int64(id)) })
				ref := h.at(at, id)
				live = append(live, pair{ev, ref})
			case 2: // cancel a surviving pair
				if len(live) == 0 {
					continue
				}
				i := int(op/4) % len(live)
				e.Cancel(live[i].ev)
				h.cancel(live[i].ref)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			case 3: // pop one event from both, or reschedule
				if op&4 != 0 && len(live) > 0 {
					i := int(op/8) % len(live)
					at := e.Now().Add(delayFor(op >> 2))
					e.Reschedule(live[i].ev, at)
					h.reschedule(live[i].ref, at)
					continue
				}
				if e.Pending() == 0 {
					continue
				}
				e.Step()
				ref := h.q.pop()
				want = append(want, ref.A)
				// Drop fired pairs from live (engine event is recycled).
				for j := 0; j < len(live); {
					if live[j].ref == ref {
						live[j] = live[len(live)-1]
						live = live[:len(live)-1]
					} else {
						j++
					}
				}
			}
		}
		// Drain the rest in lockstep.
		for e.Step() {
			want = append(want, h.q.pop().A)
		}
		if h.q.len() != 0 || e.Pending() != 0 {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
