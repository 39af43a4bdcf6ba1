package sim

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/units"
)

// fuzzTime decodes two bytes into a firing time at or after now. sel mod 6
// picks the kind of time, sel/6 a wheel level:
//
//   - now itself: a tie with every event scheduled at this instant;
//   - a few hundred picoseconds ahead: the tick being served, or the next;
//   - a fraction of the level's reach ahead;
//   - the level's reach ahead, -1/0/+1 ps;
//   - a bucket boundary of the level (the first after now, or up to 63
//     buckets on), -1/0/+1 ps;
//   - past the wheel's reach, into the far heap.
func fuzzTime(now units.Time, sel, arg byte) units.Time {
	lvl := int(sel/6) % numLevels
	off := units.Duration(arg%3) - 1 // -1, 0 or +1
	switch sel % 6 {
	case 0:
		return now
	case 1:
		return now.Add(units.Duration(arg))
	case 2:
		return now.Add(horizon(lvl) / 256 * units.Duration(arg))
	case 3:
		return now.Add(horizon(lvl) + off)
	case 4:
		span := units.Time(1) << (tickBits + lvl*levelBits)
		return (now/span+1+units.Time(arg>>2))*span + units.Time(off)
	default:
		return now.Add(wheelReach + units.Duration(arg)<<(tickBits+levelBits))
	}
}

// FuzzWheelOps decodes bytes into a sequence of At, Cancel, Reschedule,
// Step and RunUntil operations and applies each to the wheel-backed engine
// and to the 4-ary heap reference (heapCal). Times cover ties at one
// instant, the tick being served, every level's reach and bucket
// boundaries, and the far heap. Both calendars must fire the same events
// in the same order, at every step, and agree on how many are pending.
func FuzzWheelOps(f *testing.F) {
	// Hand-written seeds: each kind of time at each level, then a drain; a
	// level-1 event that must fire before a nearer-looking level-0 event
	// past the level-1 boundary; a level-1 bucket entered at a level-2
	// boundary; rescheduling and canceling across levels.
	var kinds []byte
	for lvl := byte(0); lvl < numLevels; lvl++ {
		for kind := byte(0); kind < 6; kind++ {
			for arg := byte(0); arg < 3; arg++ {
				kinds = append(kinds, 0, kind+6*lvl, arg+4*lvl)
			}
		}
	}
	f.Add(append(kinds, 3, 3, 3, 3, 3, 3, 3, 3))
	f.Add([]byte{0, 8, 5, 0, 2, 240, 3, 0, 2, 160, 3, 3, 3})
	f.Add([]byte{0, 8, 10, 3, 0, 16, 1, 0, 2, 9, 3, 3, 3})
	f.Add([]byte{0, 3, 1, 0, 11, 2, 0, 19, 0, 0, 5, 7, 2, 0, 27, 1, 2, 1, 0, 0, 3, 3, 1, 0, 3, 3, 3})
	f.Add([]byte{0, 2, 200, 0, 10, 9, 4, 1, 100, 0, 0, 0, 0, 1, 7, 3, 0, 0, 3, 1, 0, 3, 3})
	src := rng.New(7)
	for _, n := range []int{64, 256, 1024} {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(src.Intn(256))
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e := New()
		h := &heapCal{}
		type pair struct{ ev, ref *Event }
		var live []pair
		var got, want []int64
		next := func() byte { // the next input byte, 0 past the end
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// fired checks both calendars fired the same events, then drops
		// fired pairs from live (the engine recycles fired events).
		fired := func(op string) {
			if len(got) != len(want) {
				t.Fatalf("%s: engine fired %v, reference %v", op, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: engine fired %v, reference %v", op, got, want)
				}
			}
			for j := 0; j < len(live); {
				if live[j].ref.index < 0 {
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
				} else {
					j++
				}
			}
		}
		nextID := int64(0)
		for len(data) > 0 {
			switch op := next(); op % 5 {
			case 0: // At
				at := fuzzTime(e.Now(), next(), next())
				id := nextID
				nextID++
				ev := e.At(at, "x", func() { got = append(got, id) })
				live = append(live, pair{ev, h.at(at, int(id))})
			case 1: // Cancel
				if len(live) == 0 {
					continue
				}
				i := int(next()) % len(live)
				e.Cancel(live[i].ev)
				h.cancel(live[i].ref)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			case 2: // Reschedule
				if len(live) == 0 {
					continue
				}
				i := int(next()) % len(live)
				at := fuzzTime(e.Now(), next(), next())
				e.Reschedule(live[i].ev, at)
				h.reschedule(live[i].ref, at)
			case 3: // Step
				if e.Step() {
					want = append(want, h.q.pop().A)
				}
				fired("Step")
			case 4: // RunUntil: peeks at, and may settle onto, a later tick
				deadline := fuzzTime(e.Now(), next(), next())
				e.RunUntil(deadline)
				for h.q.len() > 0 && h.q.min().at <= deadline {
					want = append(want, h.q.pop().A)
				}
				fired("RunUntil")
				if e.Now() != deadline {
					t.Fatalf("RunUntil(%v) left the clock at %v", deadline, e.Now())
				}
			}
			if e.Pending() != h.q.len() {
				t.Fatalf("engine has %d pending events, reference %d", e.Pending(), h.q.len())
			}
		}
		for e.Step() {
			want = append(want, h.q.pop().A)
		}
		fired("drain")
		if h.q.len() != 0 {
			t.Fatalf("reference still holds %d events after the engine drained", h.q.len())
		}
	})
}
