package rnic

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

// rearmTimer is an ack timer armed at post that re-arms itself one period
// after every expiry while the op's segments stay queued: each expiry is
// one RNR backoff, the count relDeferrals derives without the events.
type rearmTimer struct {
	eng    *sim.Engine
	period units.Duration
	fired  uint64
}

func (tm *rearmTimer) HandleEvent(*sim.Event) {
	tm.fired++
	tm.eng.AfterEvent(tm.period, "rnic:rto", tm)
}

// TestRelDeferrals checks the deferral count derived from a recorded
// deadline against an engine that actually arms the timer d after the
// post and re-arms it every period until the last segment leaves at wire.
// The expiries strictly before wire are the strict count (the deadline at
// wire is not yet due); with the expiry at wire, the inclusive count that
// RelStats uses while segments are still queued. relDeadline must put the
// first deadline where the engine's After does, saturation included.
func TestRelDeferrals(t *testing.T) {
	const T = 20 * units.Microsecond
	nearEnd := units.MaxTime - units.Time(3*T/2)
	for _, tc := range []struct {
		name       string
		post       units.Time
		d          units.Duration
		wire       units.Time
		strict, in uint64
	}{
		{"before the deadline", 0, T, units.Time(T - 1), 0, 0},
		{"at the deadline", 0, T, units.Time(T), 0, 1},
		{"just after the deadline", 0, T, units.Time(T + 1), 1, 1},
		{"posted mid-run, same instant", 5_000_123, T, 5_000_123, 0, 0},
		{"third period, at its deadline", 7, T, 7 + units.Time(3*T), 2, 3},
		{"third period, before its deadline", 7, T, 7 + units.Time(3*T) - 1, 2, 2},
		{"backed-off first deadline", 1000, relBackoff(T, 3), 1000 + units.Time(8*T+2*T), 2, 3},
		{"thousands of periods", 42, T, 42 + units.Time(4321*T) + 9, 4321, 4321},
		{"thousands of periods, at a deadline", 42, T, 42 + units.Time(4321*T), 4320, 4321},
		{"backoff saturates the duration", units.Time(units.Microsecond), relBackoff(T, 40), units.Time(units.Millisecond), 0, 0},
		{"now+d overflows", 4e18, relBackoff(T, 38), 4e18 + units.Time(units.Millisecond), 0, 0},
		{"re-arm overflows", nearEnd, T, units.MaxTime - 1, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New()
			eng.RunUntil(tc.post)
			tm := &rearmTimer{eng: eng, period: T}
			ev := eng.AfterEvent(tc.d, "rnic:rto", tm)
			first := relDeadline(tc.post, tc.d)
			if ev.Time() != first {
				t.Fatalf("relDeadline(%d, %d) = %d, the engine's After arms at %d", tc.post, tc.d, first, ev.Time())
			}
			eng.RunUntil(tc.wire - 1)
			strict := tm.fired
			eng.RunUntil(tc.wire)
			in := tm.fired
			if strict != tc.strict || in != tc.in {
				t.Fatalf("engine timer fired %d times before wire and %d by it, the case expects %d and %d", strict, in, tc.strict, tc.in)
			}
			if got := relDeferrals(first, tc.wire-1, T); got != strict {
				t.Errorf("strict deferrals %d, engine timer %d", got, strict)
			}
			if got := relDeferrals(first, tc.wire, T); got != in {
				t.Errorf("inclusive deferrals %d, engine timer %d", got, in)
			}
		})
	}
	if d := relBackoff(T, 40); d != units.Duration(math.MaxInt64) {
		t.Fatalf("relBackoff(T, 40) = %d, want saturated", d)
	}
	if got := relDeferrals(units.MaxTime, units.MaxTime-1, T); got != 0 {
		t.Errorf("deadline at units.MaxTime counted %d deferrals", got)
	}
}
