package link

// Same-tick credit-return coalescing: two departures of one VL in the same
// engine tick merge their returns into a single event instead of stacking
// a second at the identical timestamp. The sender-visible behavior — when
// credits become available, when blocked waiters are granted — must be
// unchanged, because the merged bytes arrive at the same timestamp the
// separate events would have.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ib"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/units"
)

// creditScript drives a gate through a deterministic mix of reservations,
// arrivals, departures (including same-tick bursts), and blocked waiters,
// recording every externally observable transition: waiter grant times and
// the (time, avail, occupancy) trajectory sampled at each release hook.
func creditScript(t *testing.T, eager bool) []string {
	t.Helper()
	eng := sim.New()
	g := NewBufferGate(eng, 100*units.Nanosecond, func(ib.VL) units.ByteSize { return 16 * units.KB })
	g.eagerCredits = eager
	g.SetFrozen(false) // plain credit windows: occupancy targeting is orthogonal here
	var log []string
	obs := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%d: ", eng.Now())+fmt.Sprintf(format, args...))
	}
	g.OnRelease(func() {
		obs("release avail=%d occ=%d", g.Available(0), g.Occupancy(0))
	})
	src := rng.New(7)
	const pkt = 4 * units.KB
	var inflight int
	eng.At(0, "drive", func() {
		var step func()
		step = func() {
			switch src.Intn(4) {
			case 0, 1: // reserve + arrive (possibly blocking)
				if g.TryReserve(0, pkt) {
					g.OnArrive(0, pkt)
					inflight++
				} else {
					id := src.Intn(1000)
					g.ReserveForWaiter(0, pkt, waiterFunc(func() {
						obs("grant %d", id)
						g.OnArrive(0, pkt)
						inflight++
					}))
				}
			case 2: // single departure
				if inflight > 0 {
					g.OnDepart(0, pkt)
					inflight--
				}
			case 3: // same-tick departure burst: the merge case
				for n := 0; n < 2 && inflight > 0; n++ {
					g.OnDepart(0, pkt)
					inflight--
				}
			}
			if eng.Now() < units.Time(50*units.Microsecond) {
				eng.After(units.Duration(src.Intn(200))*units.Nanosecond, "step", step)
			}
		}
		step()
	})
	eng.Run()
	return log
}

func TestCreditCoalescingEquivalence(t *testing.T) {
	co := creditScript(t, false)
	ea := creditScript(t, true)
	if len(co) == 0 {
		t.Fatal("script observed nothing")
	}
	// Two projections are sender-visible and must match exactly:
	//
	//  1. Waiter grants — which blocked reservation was granted, when, and
	//     in what order.
	//  2. The gate state at the end of each timestamp that released
	//     credits. (Eager mode also reports intermediate states between
	//     the two same-tick release events it stacks; those are invisible
	//     to transmitters, which only run after the tick's credits have
	//     all landed.)
	if g1, g2 := grants(co), grants(ea); !equalStrings(g1, g2) {
		t.Fatalf("waiter grants diverged:\ncoalesced: %v\neager:     %v", g1, g2)
	}
	if s1, s2 := finalStates(co), finalStates(ea); !equalStrings(s1, s2) {
		t.Fatalf("per-tick release states diverged:\ncoalesced: %v\neager:     %v", s1, s2)
	}
}

// grants extracts the waiter-grant records in order.
func grants(log []string) []string {
	var out []string
	for _, s := range log {
		if strings.Contains(s, "grant") {
			out = append(out, s)
		}
	}
	return out
}

// finalStates keeps, for each timestamp, the last release observation.
func finalStates(log []string) []string {
	var out []string
	for _, s := range log {
		if !strings.Contains(s, "release") {
			continue
		}
		tick, _, _ := strings.Cut(s, ":")
		if n := len(out); n > 0 {
			if prev, _, _ := strings.Cut(out[n-1], ":"); prev == tick {
				out[n-1] = s
				continue
			}
		}
		out = append(out, s)
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
