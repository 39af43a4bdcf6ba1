// The calendar-work test: the event calendar's tick must be narrower than
// the delays the fabric schedules most, or most schedules land in the tick
// being served and pay the sorted drain buffer's insert (DESIGN.md "The
// event scheduler").
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/units"
)

// TestCalendarDrainInserts runs TestZeroAllocConvergedTraffic's star (five
// BSGs and the LSG into one drain) for 2 ms at seed 1 and bounds the drain
// inserts per executed event. Link deliveries land 2-4 ns ahead, switch
// departures 4-8 ns and credit returns 8-16 ns; with 65.5 ns ticks nearly
// all of them fell in the tick being served (0.713 inserts per event at
// 64 B payloads, 0.486 at 512 B, 0.134 at 4 KiB). With 4.1 ns ticks they
// read 0.087, 0.036 and 0.006.
func TestCalendarDrainInserts(t *testing.T) {
	const maxPerEvent = 0.1
	for _, payload := range []units.ByteSize{64, 512, 4096} {
		t.Run(fmt.Sprintf("%dB", payload), func(t *testing.T) {
			c := topology.Star(model.HWTestbed(), 7, 1)
			for i := 0; i < 5; i++ {
				bsg, err := traffic.NewBSG(c.NIC(i), c.NIC(6), traffic.BSGConfig{Payload: payload})
				if err != nil {
					t.Fatal(err)
				}
				bsg.Start(0)
			}
			lsg, err := traffic.NewLSG(c.NIC(5), 6, traffic.LSGConfig{})
			if err != nil {
				t.Fatal(err)
			}
			lsg.Start()
			c.RunUntil(units.Time(2 * units.Millisecond))
			events := c.Eng.Processed()
			if events == 0 || lsg.RTT().Count() == 0 {
				t.Fatalf("converged star ran %d events and %d LSG samples", events, lsg.RTT().Count())
			}
			cal := c.Eng.Calendar()
			perEvent := float64(cal.DrainInserts) / float64(events)
			t.Logf("%d events, calendar %+v: %.3f drain inserts per event", events, cal, perEvent)
			if perEvent >= maxPerEvent {
				t.Errorf("%.3f drain inserts per executed event (%d of %d), want < %.1f",
					perEvent, cal.DrainInserts, events, maxPerEvent)
			}
		})
	}
}
