package stats

import (
	"math"
	"testing"

	"repro/internal/units"
)

func TestBandwidthMeterBasic(t *testing.T) {
	m := NewBandwidthMeter()
	m.Open(0)
	// Deliver 7000 bytes over 1 us => 56 Gb/s.
	m.Record(units.Time(0).Add(500*units.Nanosecond), 3500)
	m.Record(units.Time(units.Microsecond), 3500)
	m.Close(units.Time(units.Microsecond))
	if got := m.Goodput().Gigabits(); math.Abs(got-56) > 0.01 {
		t.Fatalf("goodput = %v, want 56", got)
	}
	if m.Messages() != 2 || m.Bytes() != 7000 {
		t.Fatalf("messages=%d bytes=%d", m.Messages(), m.Bytes())
	}
}

func TestBandwidthMeterIgnoresPreWarmup(t *testing.T) {
	m := NewBandwidthMeter()
	m.Record(100, 999) // before Open: dropped
	m.Open(1000)
	m.Record(500, 999) // before window start: dropped
	m.Record(2000, 100)
	m.Close(3000)
	if m.Bytes() != 100 {
		t.Fatalf("bytes = %d, want 100", m.Bytes())
	}
}

func TestBandwidthMeterEmptyWindow(t *testing.T) {
	m := NewBandwidthMeter()
	m.Open(0)
	if m.Goodput() != 0 || m.MessageRate() != 0 {
		t.Fatal("empty window should report zero")
	}
}

func TestBandwidthMeterMessageRate(t *testing.T) {
	m := NewBandwidthMeter()
	m.Open(0)
	for i := 1; i <= 1000; i++ {
		m.Record(units.Time(i)*units.Time(units.Microsecond), 64)
	}
	m.Close(units.Time(units.Millisecond))
	// 1000 messages in 1 ms => 1e6 msg/s.
	if got := m.MessageRate(); math.Abs(got-1e6)/1e6 > 0.01 {
		t.Fatalf("rate = %v, want 1e6", got)
	}
}

func TestBandwidthMeterCloseExtendsWindow(t *testing.T) {
	m := NewBandwidthMeter()
	m.Open(0)
	m.Record(units.Time(0).Add(100*units.Nanosecond), 7000)
	m.Close(units.Time(units.Microsecond))
	if got := m.Goodput().Gigabits(); math.Abs(got-56) > 0.1 {
		t.Fatalf("goodput = %v, want 56", got)
	}
}

// Regression: the meter must have a closed state. Before the fix, Record
// after Close kept counting bytes and stretching the window, so a scenario
// that let in-flight traffic drain after the measurement window silently
// inflated its byte count.
func TestBandwidthMeterClosedExcludesLateDeliveries(t *testing.T) {
	m := NewBandwidthMeter()
	m.Open(0)
	m.Record(units.Time(500*units.Nanosecond), 3500)
	m.Close(units.Time(units.Microsecond))
	// Post-close drain traffic: must not count and must not extend the
	// window.
	m.Record(units.Time(2*units.Microsecond), 4096)
	m.Record(units.Time(3*units.Microsecond), 4096)
	m.Close(units.Time(5 * units.Microsecond))
	if m.Bytes() != 3500 || m.Messages() != 1 {
		t.Fatalf("post-close deliveries counted: bytes=%d messages=%d", m.Bytes(), m.Messages())
	}
	if m.Window() != units.Microsecond {
		t.Fatalf("window = %v, want 1us (close is final)", m.Window())
	}
	// Re-opening starts a fresh window and unfreezes the meter.
	m.Open(units.Time(10 * units.Microsecond))
	m.Record(units.Time(11*units.Microsecond), 100)
	if m.Bytes() != 100 {
		t.Fatalf("reopened meter did not record: bytes=%d", m.Bytes())
	}
}

// Regression: a zero-width window with delivered bytes reported 0 — the
// divide-by-zero guard masquerading as a measurement. The defined
// semantics: deliveries all at the window-open instant span the minimum
// one-picosecond tick, so the rate is finite and positive; only a window
// with no deliveries reports 0.
func TestBandwidthMeterZeroWidthWindowWithData(t *testing.T) {
	m := NewBandwidthMeter()
	m.Open(1000)
	m.Record(1000, 4096) // delivered exactly at the open instant
	m.Close(1000)
	if m.Window() != 0 {
		t.Fatalf("window = %v, want 0", m.Window())
	}
	if got, want := m.Goodput(), units.Rate(4096, units.Picosecond); got != want {
		t.Fatalf("Goodput = %v, want one-tick rate %v", got, want)
	}
	if got, want := m.MessageRate(), 1/units.Picosecond.Seconds(); got != want {
		t.Fatalf("MessageRate = %v, want %v", got, want)
	}
}
