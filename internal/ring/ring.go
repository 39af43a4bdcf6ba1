// Package ring is the growable FIFO ring buffer behind the simulator's
// per-packet queues: the switch's per-VL input queues and the RNIC's data
// send engines.
//
// A slice queue popped with q[1:] walks its backing array forward and
// forces a reallocation on a later append, and one popped by shifting its
// elements down costs a copy of the whole queue per pop. The ring reuses
// its storage indefinitely: once grown to the steady-state depth it never
// allocates again, and push and pop cost the same at any depth. Capacity
// is always a power of two (grow doubles from 8), so index wrapping is a
// mask, not a division.
package ring

// Ring is a FIFO of T. The zero value is an empty ring.
type Ring[T any] struct {
	buf  []T
	head int32
	n    int32
}

// Len returns the number of queued entries.
func (q *Ring[T]) Len() int { return int(q.n) }

// Front returns the oldest entry. The ring must not be empty. The pointer
// is valid until the next Push or Pop.
func (q *Ring[T]) Front() *T { return &q.buf[q.head] }

// At returns entry i in FIFO order, 0 being the front.
func (q *Ring[T]) At(i int) *T { return &q.buf[(int(q.head)+i)&(len(q.buf)-1)] }

// Push appends v at the back.
func (q *Ring[T]) Push(v T) {
	if int(q.n) == len(q.buf) {
		q.grow()
	}
	q.buf[int(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes the front entry, which must exist. The vacated slot is
// zeroed, so a popped pointer is not kept reachable from the ring.
func (q *Ring[T]) Pop() {
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & int32(len(q.buf)-1)
	q.n--
}

// grow doubles a full ring, unwrapping its entries to the front.
func (q *Ring[T]) grow() {
	nb := make([]T, max(8, 2*len(q.buf)))
	n := copy(nb, q.buf[q.head:])
	copy(nb[n:], q.buf[:q.head])
	q.buf, q.head = nb, 0
}
