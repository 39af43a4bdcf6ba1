package stats

import "repro/internal/units"

// BandwidthMeter accumulates delivered payload bytes over a measurement
// window and reports goodput, the metric the paper plots for BSGs
// (Figures 5, 7b, 9, 13).
type BandwidthMeter struct {
	bytes    units.ByteSize
	messages uint64
	start    units.Time
	end      units.Time
	started  bool
	closed   bool
}

// NewBandwidthMeter returns an empty meter.
func NewBandwidthMeter() *BandwidthMeter { return &BandwidthMeter{} }

// Open marks the beginning of the measurement window. Bytes recorded before
// Open are discarded, which is how experiments exclude warmup traffic.
func (m *BandwidthMeter) Open(at units.Time) {
	m.start = at
	m.end = at
	m.bytes = 0
	m.messages = 0
	m.started = true
	m.closed = false
}

// Record notes the delivery of a message's payload at the given time.
// Deliveries outside the window — before Open, or after Close — are
// excluded, the same way warmup traffic is.
func (m *BandwidthMeter) Record(at units.Time, payload units.ByteSize) {
	if !m.started || m.closed {
		return
	}
	if at < m.start {
		return
	}
	m.bytes += payload
	m.messages++
	if at > m.end {
		m.end = at
	}
}

// Close marks the end of the measurement window and freezes the meter:
// later Record and Close calls are ignored, so draining traffic cannot
// count bytes into — or stretch — a window that has already been reported.
func (m *BandwidthMeter) Close(at units.Time) {
	if !m.started || m.closed {
		return
	}
	if at > m.end {
		m.end = at
	}
	m.closed = true
}

// Bytes reports the payload bytes delivered inside the window.
func (m *BandwidthMeter) Bytes() units.ByteSize { return m.bytes }

// Messages reports the number of messages delivered inside the window.
func (m *BandwidthMeter) Messages() uint64 { return m.messages }

// Window reports the measurement window duration.
func (m *BandwidthMeter) Window() units.Duration { return m.end.Sub(m.start) }

// effectiveWindow is the duration Goodput and MessageRate divide by. A
// window can end up zero-width only when every delivery landed at the
// window-open instant (Close never stretched it); reporting 0 for such a
// window would misread "traffic arrived too fast to time" as "no traffic"
// — a divide-by-zero guard masquerading as a measurement. The defined
// semantics: a degenerate window with recorded data spans the minimum
// representable tick (one picosecond), so the reported rate is finite,
// positive, and an honest upper bound. With no data the rate is 0 and the
// window never matters.
func (m *BandwidthMeter) effectiveWindow() units.Duration {
	d := m.Window()
	if d <= 0 && m.messages > 0 {
		return units.Picosecond
	}
	return d
}

// Goodput reports payload bandwidth across the window (0 when nothing was
// delivered; see effectiveWindow for the zero-width-window semantics).
func (m *BandwidthMeter) Goodput() units.Bandwidth {
	d := m.effectiveWindow()
	if d <= 0 {
		return 0
	}
	return units.Rate(m.bytes, d)
}

// MessageRate reports delivered messages per second (0 when nothing was
// delivered; see effectiveWindow for the zero-width-window semantics).
func (m *BandwidthMeter) MessageRate() float64 {
	d := m.effectiveWindow()
	if d <= 0 {
		return 0
	}
	return float64(m.messages) / d.Seconds()
}
