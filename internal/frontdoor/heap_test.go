package frontdoor

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is the container/heap oracle: events ordered by (at, tie).
type refHeap []event[int]

func (h refHeap) Len() int      { return len(h) }
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h refHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].tie < h[j].tie)
}
func (h *refHeap) Push(x any) { *h = append(*h, x.(event[int])) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// TestEventHeapMatchesContainerHeap drives seeded pushes and pops, with
// times drawn from a few values so most comparisons fall to the tie
// key, through the event heap and container/heap side by side.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h eventHeap[int]
	var ref refHeap
	for step := 0; step < 20_000; step++ {
		if len(ref) == 0 || rng.Intn(5) < 3 {
			// Ties are unique, as tenants and request sequences are, so
			// the order is total.
			e := event[int]{at: float64(rng.Intn(8)), tie: uint64(step), v: step}
			if rng.Intn(4) == 0 {
				e.tie = uint64(1<<40 - step)
			}
			h.push(e)
			heap.Push(&ref, e)
			continue
		}
		top, ok := h.peek()
		got, want := h.pop(), heap.Pop(&ref).(event[int])
		if !ok || top != got || got != want {
			t.Fatalf("step %d: peek %+v (ok %v), pop %+v, container/heap %+v", step, top, ok, got, want)
		}
	}
	for len(ref) > 0 {
		if got, want := h.pop(), heap.Pop(&ref).(event[int]); got != want {
			t.Fatalf("drain: pop %+v, container/heap %+v", got, want)
		}
	}
	if _, ok := h.peek(); ok || len(h) != 0 {
		t.Errorf("heap holds %d events after the drain", len(h))
	}
}
