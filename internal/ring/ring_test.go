package ring

import "testing"

type entry struct {
	ptr *int
	val int
}

// The ring must preserve FIFO order across wrap-around and growth — the
// two regimes a plain slice queue never exercises.
func TestRingFIFOAcrossWrapAndGrowth(t *testing.T) {
	var q Ring[entry]
	next := 0  // next value to push
	front := 0 // next value expected at the front
	push := func() {
		q.Push(entry{val: next})
		next++
	}
	pop := func() {
		t.Helper()
		if got := q.Front().val; got != front {
			t.Fatalf("front = %d, want %d (len %d)", got, front, q.Len())
		}
		q.Pop()
		front++
	}
	// Interleave pushes and pops so head walks around the ring while the
	// buffer grows through several capacities.
	for round := 0; round < 200; round++ {
		push()
		push()
		push()
		pop()
		pop()
	}
	for q.Len() > 0 {
		pop()
	}
	if front != next {
		t.Fatalf("popped %d of %d pushed", front, next)
	}
}

func TestRingPopClearsReference(t *testing.T) {
	var q Ring[entry]
	q.Push(entry{ptr: new(int)})
	head := q.head
	q.Pop()
	if q.buf[head].ptr != nil {
		t.Fatal("Pop left a pointer in the vacated slot")
	}
}

func TestRingAtIteratesInFIFOOrder(t *testing.T) {
	var q Ring[entry]
	// Fill the first capacity (8), drain most of it and push past the
	// buffer's end, so the live entries wrap around to its start.
	for i := 0; i < 8; i++ {
		q.Push(entry{val: i})
	}
	for i := 0; i < 6; i++ {
		q.Pop()
	}
	for i := 8; i < 12; i++ {
		q.Push(entry{val: i})
	}
	if int(q.head)+q.Len() <= len(q.buf) {
		t.Fatalf("layout did not wrap: head %d, len %d, cap %d", q.head, q.Len(), len(q.buf))
	}
	for i := 0; i < q.Len(); i++ {
		if got := q.At(i).val; got != 6+i {
			t.Fatalf("At(%d) = %d, want %d", i, got, 6+i)
		}
	}
}
