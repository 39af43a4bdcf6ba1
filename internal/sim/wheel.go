package sim

// The hierarchical timing wheel that backs Engine's calendar.
//
// A heap pays O(log n) per operation no matter where an event lands. But
// nearly every delay this simulator schedules — link propagation,
// serialization of an MTU at tens of Gb/s, credit-return latency, engine
// occupancy — falls within a few microseconds of now, and most within a
// few nanoseconds. The wheel exploits that: time is quantized into
// 2^tickBits-picosecond ticks, and each of numLevels wheel levels holds
// numBuckets buckets of geometrically coarsening span. Scheduling,
// canceling and rescheduling an event within the wheel's reach is O(1);
// only events beyond it (a timer backed off past 68.7 ms, a delay clamped
// to units.MaxTime) fall through to a far-future 4-ary heap (eventQueue,
// the previous calendar, retained both as the overflow structure and as
// the benchmark baseline in queue_bench_test.go).
//
// # Determinism
//
// The engine's contract — events pop in strict (time, seq) order, FIFO
// among ties — is preserved exactly:
//
//   - Buckets are unordered sets; order within a bucket is established only
//     when the bucket is drained, by sorting on (at, seq). Since seq is
//     unique, the sort has a single total order regardless of the bucket's
//     physical layout (which cancel's swap-remove perturbs).
//   - The drain buffer holds the sorted events of the tick currently being
//     served. New events landing at or before the current tick insert into
//     it at their (at, seq) position, so a handler scheduling "now" events
//     interleaves with already-extracted same-tick events correctly.
//
// # Level layout
//
// With tickBits=12 and levelBits=6, level l's buckets span 64^l ticks and
// the level reaches 64^(l+1) ticks:
//
//	level  bucket span  reach
//	0      4.1 ns       262 ns
//	1      262 ns       16.8 us
//	2      16.8 us      1.07 ms
//	3      1.07 ms      68.7 ms
//
// The tick fits the fabric's delay spectrum (DESIGN.md "The event
// scheduler"): link deliveries 2-4 ns ahead, departures 4-8 ns and credit
// returns 8-16 ns land in a later level-0 bucket, not in the sorted drain
// buffer of the tick being served. The fourth level keeps a default 15 ms
// run inside the wheel. An event goes to the first level whose bucket
// distance from the current tick fits; as the current tick advances into
// an upper-level bucket, that bucket cascades: its events redistribute
// into lower levels (each event cascades at most once per level, so the
// amortized cost stays O(1) per event).
//
// curTick may run ahead of the engine clock: RunUntil peeks at the next
// event, which settles the wheel onto that event's tick even when the
// deadline then stops the run short of it. Events subsequently scheduled
// between the clock and curTick are inserted into the (sorted) drain
// buffer, which is always served before the wheel advances again.

import "math/bits"

const (
	// tickBits sets the level-0 tick: 2^12 ps = 4.096 ns.
	tickBits = 12
	// levelBits sets the buckets per level: 64, one occupancy word each.
	levelBits  = 6
	numBuckets = 1 << levelBits
	bucketMask = numBuckets - 1
	numLevels  = 4
	// topShift converts a tick to its top-level slot.
	topShift = (numLevels - 1) * levelBits

	// Event location codes carried in Event.lvl. Values 0..numLevels-1 are
	// wheel levels.
	locDrain = int8(numLevels)     // in the sorted drain buffer
	locFar   = int8(numLevels + 1) // in the far-future heap
)

// wheel is the calendar: numLevels wheel levels, the drain buffer of the
// tick being served, and the far-future overflow heap.
type wheel struct {
	// curTick is the tick the drain buffer belongs to. All events stored in
	// wheel buckets or the far heap have tick >= curTick; events before
	// curTick live in the drain buffer, and so do curTick's own whenever
	// the buffer is non-empty.
	curTick int64
	levels  [numLevels][numBuckets][]*Event
	occ     [numLevels]uint64 // bit b set iff levels[l][b] is non-empty
	// drain holds the sorted (at, seq) events being served; entries before
	// drainHead have already popped. Storage is reused across ticks.
	drain     []*Event
	drainHead int
	far       eventQueue
	count     int
	stats     CalendarStats
}

// CalendarStats counts the calendar's work since the engine was built, on
// the paths that cost more than a schedule's one bucket append.
type CalendarStats struct {
	// DrainInserts counts events filed into the sorted buffer of the tick
	// being served (a binary search and a shift each).
	DrainInserts uint64
	// Cascaded counts events moved down a level as the wheel advanced into
	// their bucket.
	Cascaded uint64
	// FarPushes counts events filed beyond the wheel's reach, in the
	// far-future heap.
	FarPushes uint64
}

func tickOf(at int64) int64 { return at >> tickBits }

func (w *wheel) len() int { return w.count }

// push inserts a newly scheduled event. The engine has already filled
// ev.at and ev.seq (seq strictly larger than every live event's).
func (w *wheel) push(ev *Event) {
	w.count++
	w.insert(ev)
}

func (w *wheel) insert(ev *Event) {
	tick := tickOf(int64(ev.at))
	if tick < w.curTick || (tick == w.curTick && w.drainHead < len(w.drain)) {
		// At or before the tick being served: order against the already
		// extracted events of that tick (and, when curTick ran ahead of the
		// clock, against the future events the peek settled onto).
		w.drainInsert(ev)
		return
	}
	w.place(ev, tick)
}

// levelOf returns the first level whose bucket distance from curTick fits
// tick, or numLevels when tick lies beyond the wheel's reach. Requires
// tick >= curTick.
func (w *wheel) levelOf(tick int64) int {
	for lvl := 0; lvl < numLevels; lvl++ {
		shift := uint(lvl) * levelBits
		if (tick>>shift)-(w.curTick>>shift) < numBuckets {
			return lvl
		}
	}
	return numLevels
}

// place stores ev in its level's bucket, or in the far heap beyond the
// wheel's reach. Requires tick >= curTick.
func (w *wheel) place(ev *Event, tick int64) {
	lvl := w.levelOf(tick)
	if lvl == numLevels {
		ev.lvl = locFar
		w.far.push(ev)
		w.stats.FarPushes++
		return
	}
	w.bucketPush(lvl, int((tick>>(uint(lvl)*levelBits))&bucketMask), ev)
}

func (w *wheel) bucketPush(lvl, bkt int, ev *Event) {
	b := &w.levels[lvl][bkt]
	ev.lvl = int8(lvl)
	ev.bkt = int16(bkt)
	ev.index = len(*b)
	*b = append(*b, ev)
	w.occ[lvl] |= 1 << uint(bkt)
}

// remove deletes a pending event (cancel, or the first half of a move).
func (w *wheel) remove(ev *Event) {
	w.count--
	w.unlink(ev)
	ev.index = -1
}

func (w *wheel) unlink(ev *Event) {
	switch ev.lvl {
	case locDrain:
		w.drainRemove(ev.index)
	case locFar:
		w.far.remove(ev.index)
	default:
		b := &w.levels[ev.lvl][ev.bkt]
		n := len(*b) - 1
		last := (*b)[n]
		(*b)[n] = nil
		*b = (*b)[:n]
		if ev.index < n {
			// Buckets are unordered until drained, so swap-remove is safe.
			(*b)[ev.index] = last
			last.index = ev.index
		}
		if n == 0 {
			w.occ[ev.lvl] &^= 1 << uint(ev.bkt)
		}
	}
}

// move re-files ev after the engine updated its (at, seq) — Reschedule's
// backend. The hot wake pattern moves an event by less than a bucket span,
// in which case nothing needs to be re-filed at all.
func (w *wheel) move(ev *Event) {
	tick := tickOf(int64(ev.at))
	if lvl := ev.lvl; lvl >= 0 && lvl < numLevels {
		shift := uint(lvl) * levelBits
		if int((tick>>shift)&bucketMask) == int(ev.bkt) && w.fits(int(lvl), tick) {
			return // same unordered bucket: at/seq updates suffice
		}
	}
	w.unlink(ev)
	w.insert(ev)
}

// fits reports whether tick still maps to the given wheel level.
func (w *wheel) fits(lvl int, tick int64) bool {
	return tick >= w.curTick && w.levelOf(tick) == lvl
}

// min returns the earliest pending event without removing it. It may
// advance curTick (see the package comment on peeking ahead).
func (w *wheel) min() *Event {
	if w.drainHead >= len(w.drain) {
		w.settle()
	}
	return w.drain[w.drainHead]
}

// pop removes and returns the earliest pending event.
func (w *wheel) pop() *Event {
	if w.drainHead >= len(w.drain) {
		w.settle()
	}
	ev := w.drain[w.drainHead]
	w.drain[w.drainHead] = nil
	w.drainHead++
	if w.drainHead == len(w.drain) {
		w.drain = w.drain[:0]
		w.drainHead = 0
	}
	ev.index = -1
	w.count--
	return ev
}

// settle ensures the drain buffer holds the next pending event, advancing
// the wheel as needed. The caller guarantees count > 0.
//
// Advancement is strictly boundary-respecting: before any level-0 event
// beyond a level-1 boundary is served, the entered level-1 bucket cascades
// (and likewise for every upper level's boundaries), so an upper-level
// bucket covering curTick is always empty — the invariant that makes
// "nearest occupied lower-level bucket" the true minimum. The far heap is
// checked every iteration: events the advancing top-level reach now
// covers move into the wheels before any serving decision. (Far events
// are strictly later than every wheel event at equal curTick, so this
// check is what keeps the heap from hiding an earlier event.)
func (w *wheel) settle() {
	for w.drainHead >= len(w.drain) {
		w.drain = w.drain[:0]
		w.drainHead = 0

		// Pull far-future events the top level's reach has covered.
		for w.far.len() > 0 {
			m := w.far.min()
			if (tickOf(int64(m.at))>>topShift)-(w.curTick>>topShift) >= numBuckets {
				break
			}
			ev := w.far.pop()
			w.place(ev, tickOf(int64(ev.at)))
		}

		if w.occ[0] != 0 {
			p := int(w.curTick & bucketMask)
			idx := nearestBucket(w.occ[0], p)
			t := w.curTick + int64((idx-p)&bucketMask)
			if t>>levelBits == w.curTick>>levelBits {
				w.curTick = t
				w.drainBucket(idx)
				return
			}
			// The nearest level-0 event lies past a level-1 boundary: cross
			// the boundary (merging the entered bucket) before serving it.
		}
		if !w.cross() {
			// Wheels empty: jump to the far minimum; the refill above moves
			// it (and its near neighbors) into the wheels next iteration.
			w.curTick = tickOf(int64(w.far.min().at))
		}
	}
}

// cross advances curTick to the next boundary of the lowest level that
// holds an event or has one below it, cascading every bucket the new
// curTick enters, and reports false when every wheel level is empty. When
// all lower levels are empty it jumps straight to the start of the
// level's nearest occupied bucket. (Distance 0 cannot occur: the bucket
// covering curTick cascaded when curTick entered it.) When the boundary
// lies past a boundary of the level above, that level's crossing comes
// first.
func (w *wheel) cross() bool {
	below := w.occ[0] // occupancy of the levels under lvl
	for lvl := 1; lvl < numLevels; lvl++ {
		occ := w.occ[lvl]
		if below|occ != 0 {
			shift := uint(lvl) * levelBits
			slot := w.curTick >> shift
			next := slot + 1
			if below == 0 {
				p := int(slot & bucketMask)
				if d := int64((nearestBucket(occ, p) - p) & bucketMask); d > 1 {
					next = slot + d
				}
			}
			n := next << shift
			if lvl == numLevels-1 || n>>(shift+levelBits) == w.curTick>>(shift+levelBits) {
				w.curTick = n
				for l := lvl; l > 0; l-- {
					if i := int((n >> (uint(l) * levelBits)) & bucketMask); w.occ[l]&(1<<uint(i)) != 0 {
						w.cascadeBucket(l, i)
					}
				}
				return true
			}
		}
		below |= occ
	}
	return false
}

// cascadeBucket redistributes the bucket at (lvl, idx) into lower levels.
// Called only for buckets whose span curTick has just entered, so every
// event lands at least one level down and redistribution terminates.
func (w *wheel) cascadeBucket(lvl, idx int) {
	b := w.levels[lvl][idx]
	w.levels[lvl][idx] = b[:0]
	w.occ[lvl] &^= 1 << uint(idx)
	w.stats.Cascaded += uint64(len(b))
	for i, ev := range b {
		b[i] = nil
		w.place(ev, tickOf(int64(ev.at)))
	}
}

// drainBucket moves the level-0 bucket at idx — all events of tick
// curTick — into the drain buffer in (at, seq) order. The bucket's slice
// becomes the drain buffer and the (empty, clean) drain storage becomes
// the bucket, so no pointers are copied or cleared.
func (w *wheel) drainBucket(idx int) {
	d := w.levels[0][idx]
	w.levels[0][idx] = w.drain[:0]
	w.drain = d
	w.occ[0] &^= 1 << uint(idx)
	if len(d) == 1 {
		d[0].lvl = locDrain
		d[0].index = 0
		return
	}
	// Insertion sort: buckets hold the events of one 4.1 ns tick — a
	// handful at most — and sort.Slice would allocate on the hot path.
	for i := 1; i < len(d); i++ {
		ev := d[i]
		j := i
		for j > 0 && eventLess(ev, d[j-1]) {
			d[j] = d[j-1]
			j--
		}
		d[j] = ev
	}
	for i, ev := range d {
		ev.lvl = locDrain
		ev.index = i
	}
}

// drainInsert files ev into the drain buffer at its (at, seq) position.
// The engine hands out strictly increasing seq on every (re)schedule, so
// ev orders after any drained event with an equal timestamp.
//
// An empty buffer can meet a non-empty level-0 bucket of curTick itself
// when curTick ran ahead of the clock and the peeked events were canceled
// or moved: events scheduled into curTick then went to its bucket. Before
// ev, earlier than curTick, opens the buffer, that bucket joins it, or
// curTick events scheduled later would be served ahead of them.
func (w *wheel) drainInsert(ev *Event) {
	w.stats.DrainInserts++
	if len(w.drain) == 0 {
		if i := int(w.curTick & bucketMask); w.occ[0]&(1<<uint(i)) != 0 {
			w.drainBucket(i)
		}
	}
	d := w.drain
	lo, hi := w.drainHead, len(d)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d[mid].at <= ev.at {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	d = append(d, nil)
	copy(d[lo+1:], d[lo:])
	d[lo] = ev
	ev.lvl = locDrain
	ev.index = lo
	for j := lo + 1; j < len(d); j++ {
		d[j].index = j
	}
	w.drain = d
}

// drainRemove deletes the drain entry at absolute position i.
func (w *wheel) drainRemove(i int) {
	d := w.drain
	n := len(d) - 1
	copy(d[i:], d[i+1:])
	d[n] = nil
	d = d[:n]
	for j := i; j < n; j++ {
		d[j].index = j
	}
	w.drain = d
	if w.drainHead >= len(w.drain) {
		w.drain = w.drain[:0]
		w.drainHead = 0
	}
}

// nearestBucket returns the occupied bucket index reached first when
// scanning occ forward (with wraparound) from position from.
func nearestBucket(occ uint64, from int) int {
	r := bits.RotateLeft64(occ, -from)
	return (from + bits.TrailingZeros64(r)) & bucketMask
}
