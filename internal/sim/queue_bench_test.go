package sim

// Benchmarks comparing the engine's calendar against its predecessor on
// two workloads:
//
//   - Wheel: the hierarchical timing wheel behind Engine (wheel.go).
//   - Heap: the indexed 4-ary heap the wheel replaced, retained in sim.go
//     as the far-future overflow structure and driven here through a
//     minimal harness with the engine's exact (time, seq) discipline.
//
// Three workloads matter:
//
//   - Mix: the generic schedule/cancel/pop churn of a busy fabric, delays
//     uniform over 0-1 us.
//   - Wake: the switch/NIC pattern — one pending evaluation per resource,
//     constantly pulled earlier — served with Reschedule (same-bucket
//     moves on the wheel, one sift on the heap) instead of Cancel+At.
//   - Spectrum: pop the earliest event and schedule its successor, with
//     delays drawn from the spectrum paper-star's fig8 grid schedules,
//     most of them 2-16 ns ahead (DESIGN.md "The event scheduler"). This is
//     where the wheel's tick width shows: a delay inside the tick being
//     served pays the sorted drain buffer's insert.
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

// fig8Spectrum is the schedule-delay spectrum of paper-star's fig8 grid
// (seeds 1-3, every label): entry k is the schedules per million whose
// delay d in picoseconds has bits.Len64(d) == k, i.e. 0 for k = 0 and
// [2^(k-1), 2^k) otherwise. 2.5% are zero-delay, 28% fall at 2-4 ns, 45%
// at 4-66 ns, 23% at 66-262 ns and 1.3% at 262 ns to 2.1 us.
var fig8Spectrum = [...]int{
	25256, 1, 1, 2, 5, 10, 21, 39, 82, 161, 329, 663, // 0 to 2 ns
	280375, 135071, 121968, 130850, 62874, 95180, 134161, // 2 ns to 262 ns
	9154, 3485, 310, // 262 ns to 2.1 us
}

// spectrumPopulation is the standing number of pending events: the
// converged star at 64 B payloads holds 20 on average, at most 36.
const spectrumPopulation = 32

// spectrumDelays draws a fixed table of delays from fig8Spectrum, so both
// calendars see the same sequence and no RNG cost is timed.
func spectrumDelays() []units.Duration {
	total := 0
	for _, n := range fig8Spectrum {
		total += n
	}
	src := rng.New(3)
	delays := make([]units.Duration, 4096)
	for i := range delays {
		r, k := src.Intn(total), 0
		for r >= fig8Spectrum[k] {
			r -= fig8Spectrum[k]
			k++
		}
		if k > 0 {
			lo := 1 << (k - 1)
			delays[i] = units.Duration(lo + src.Intn(lo))
		}
	}
	return delays
}

func BenchmarkQueueSpectrumWheel(b *testing.B) {
	e := New()
	delays := spectrumDelays()
	i := 0
	var hold func()
	hold = func() {
		e.At(e.Now().Add(delays[i%len(delays)]), "hold", hold)
		i++
	}
	for j := 0; j < spectrumPopulation; j++ {
		hold()
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		e.Step()
	}
}

func BenchmarkQueueSpectrumHeap(b *testing.B) {
	e := &heapEngine{}
	delays := spectrumDelays()
	i := 0
	var hold func()
	hold = func() {
		e.At(e.now.Add(delays[i%len(delays)]), hold)
		i++
	}
	for j := 0; j < spectrumPopulation; j++ {
		hold()
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		e.Step()
	}
}
