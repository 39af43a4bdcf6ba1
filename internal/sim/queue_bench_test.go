package sim

// Benchmarks comparing the engine's calendar against its predecessor on
// two workloads:
//
//   - Wheel: the hierarchical timing wheel behind Engine (wheel.go).
//   - Heap: the indexed 4-ary heap the wheel replaced, retained in sim.go
//     as the far-future overflow structure and driven here through a
//     minimal harness with the engine's exact (time, seq) discipline.
//
// Two workloads matter:
//
//   - Mix: the generic schedule/cancel/pop churn of a busy fabric.
//   - Wake: the switch/NIC pattern — one pending evaluation per resource,
//     constantly pulled earlier — served with Reschedule (same-bucket
//     moves on the wheel, one sift on the heap) instead of Cancel+At.
//
// Results are recorded in CHANGES.md.

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/units"
)

// The mix benchmark holds a standing population of pending events and, per
// iteration, schedules two, cancels one and pops one — the churn profile
// of converged traffic, where most scheduled work fires but credit stalls
// and rearbitration kill a steady fraction.
const mixPopulation = 1024

func nopFn() {}

// heapEngine drives the retained 4-ary eventQueue with the engine's
// scheduling discipline: the mid-tier baseline.
type heapEngine struct {
	now  units.Time
	q    eventQueue
	free []*Event
	seq  uint64
}

func (e *heapEngine) At(at units.Time, fn func()) *Event {
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = &Event{}
	}
	ev.at, ev.seq, ev.fn = at, e.seq, fn
	e.seq++
	e.q.push(ev)
	return ev
}

func (e *heapEngine) Cancel(ev *Event) {
	if ev == nil || ev.index < 0 {
		return
	}
	e.q.remove(ev.index)
	ev.fn = nil
	e.free = append(e.free, ev)
}

func (e *heapEngine) Reschedule(ev *Event, at units.Time) {
	ev.at, ev.seq = at, e.seq
	e.seq++
	e.q.fix(ev.index)
}

func (e *heapEngine) Step() bool {
	if e.q.len() == 0 {
		return false
	}
	ev := e.q.pop()
	e.now = ev.at
	fn := ev.fn
	ev.fn = nil
	e.free = append(e.free, ev)
	fn()
	return true
}

func BenchmarkQueueMixWheel(b *testing.B) {
	e := New()
	src := rng.New(1)
	type entry struct {
		id int
		ev *Event
	}
	var fired []bool // indexed by event id; marks events that already ran
	var live []entry
	sched := func() {
		id := len(fired)
		fired = append(fired, false)
		ev := e.At(e.Now().Add(units.Duration(src.Intn(1_000_000))), "mix", func() { fired[id] = true })
		live = append(live, entry{id, ev})
	}
	for i := 0; i < mixPopulation; i++ {
		sched()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched()
		sched()
		// Cancel one random surviving event; purge fired entries met on the
		// way (their *Event may have been recycled — see the package doc).
		for len(live) > 0 {
			j := src.Intn(len(live))
			en := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			if fired[en.id] {
				continue
			}
			e.Cancel(en.ev)
			break
		}
		e.Step()
	}
}

func BenchmarkQueueMixHeap(b *testing.B) {
	e := &heapEngine{}
	src := rng.New(1)
	type entry struct {
		id int
		ev *Event
	}
	var fired []bool
	var live []entry
	sched := func() {
		id := len(fired)
		fired = append(fired, false)
		ev := e.At(e.now.Add(units.Duration(src.Intn(1_000_000))), func() { fired[id] = true })
		live = append(live, entry{id, ev})
	}
	for i := 0; i < mixPopulation; i++ {
		sched()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched()
		sched()
		for len(live) > 0 {
			j := src.Intn(len(live))
			en := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			if fired[en.id] {
				continue
			}
			e.Cancel(en.ev)
			break
		}
		e.Step()
	}
}

// The wake benchmark reproduces the egress-arbiter pattern: a background
// population of timer events, plus one "pending pick" per port that is
// repeatedly pulled to an earlier time as packets arrive.
const wakePorts = 36

func BenchmarkQueueWakeWheel(b *testing.B) {
	e := New()
	src := rng.New(2)
	var picks [wakePorts]*Event
	for i := 0; i < mixPopulation; i++ {
		e.At(units.Time(1_000_000_000+src.Intn(1_000_000_000)), "bg", nopFn)
	}
	for p := range picks {
		picks[p] = e.At(units.Time(500_000_000+src.Intn(100_000_000)), "pick", nopFn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := src.Intn(wakePorts)
		at := units.Time(1_000_000 + src.Intn(400_000_000))
		if picks[p].Time() > at {
			e.Reschedule(picks[p], at)
		} else {
			e.Reschedule(picks[p], at.Add(500_000_000))
		}
	}
}

func BenchmarkQueueWakeHeap(b *testing.B) {
	e := &heapEngine{}
	src := rng.New(2)
	var picks [wakePorts]*Event
	for i := 0; i < mixPopulation; i++ {
		e.At(units.Time(1_000_000_000+src.Intn(1_000_000_000)), nopFn)
	}
	for p := range picks {
		picks[p] = e.At(units.Time(500_000_000+src.Intn(100_000_000)), nopFn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := src.Intn(wakePorts)
		at := units.Time(1_000_000 + src.Intn(400_000_000))
		if picks[p].at > at {
			e.Reschedule(picks[p], at)
		} else {
			e.Reschedule(picks[p], at.Add(500_000_000))
		}
	}
}
