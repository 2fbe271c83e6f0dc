package core

import (
	"repro/internal/heapx"
)

// Queue is the OPEN-list abstraction shared by the serial and parallel
// engines. Implementations hold only incomplete states (goals are captured
// by the engines as incumbents at generation time).
type Queue interface {
	// Push inserts a state.
	Push(*State)
	// Pop removes and returns the next state to expand per the queue's
	// policy, or nil when empty.
	Pop() *State
	// MinF returns the minimum f over the queued states; ok is false when
	// empty. Termination proofs (optimality / ε-admissibility) compare the
	// incumbent against this value.
	MinF() (int32, bool)
	// Len returns the number of queued states.
	Len() int
}

// BestFirstQueue is the exact A* OPEN list: Pop returns the minimum-f state
// (ties prefer deeper states; see Less). It is a 4-ary min-heap whose
// entries carry each state's ordering key inline, so sifting compares keys
// in the heap's own slab and never dereferences a state; the shallow 4-ary
// tree halves the levels a sift crosses, and sifts move a hole instead of
// swapping.
type BestFirstQueue struct {
	items []openEntry
}

// openEntry is one OPEN slot: the state's ordering key and the state.
type openEntry struct {
	key openKey
	s   *State
}

// NewBestFirstQueue returns an empty best-first queue.
func NewBestFirstQueue() *BestFirstQueue {
	return &BestFirstQueue{items: make([]openEntry, 0, 1024)}
}

// Push inserts a state.
//
//icpp98:hotpath
func (q *BestFirstQueue) Push(s *State) {
	e := openEntry{key: s.key(), s: s}
	q.items = append(q.items, e) //icpp98:allow hotpath OPEN growth; amortized O(1) per push
	items := q.items
	i := len(items) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.key.before(&items[p].key) {
			break
		}
		items[i] = items[p]
		i = p
	}
	items[i] = e
}

// Pop removes and returns the minimum-f state, or nil when empty.
//
//icpp98:hotpath
func (q *BestFirstQueue) Pop() *State {
	n := len(q.items) - 1
	if n < 0 {
		return nil
	}
	top := q.items[0].s
	last := q.items[n]
	q.items[n] = openEntry{} // release the state for GC
	q.items = q.items[:n]
	if n > 0 {
		q.siftDown(last)
	}
	return top
}

// siftDown places e, which replaces the root, by moving the hole at the
// root down past every smaller child.
//
//icpp98:hotpath
func (q *BestFirstQueue) siftDown(e openEntry) {
	items := q.items
	n := len(items)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if items[c].key.before(&items[best].key) {
				best = c
			}
		}
		if !items[best].key.before(&e.key) {
			break
		}
		items[i] = items[best]
		i = best
	}
	items[i] = e
}

// MinF returns the minimum f over queued states.
func (q *BestFirstQueue) MinF() (int32, bool) {
	if len(q.items) == 0 {
		return 0, false
	}
	return q.items[0].key.f, true
}

// Len returns the number of queued states.
func (q *BestFirstQueue) Len() int { return len(q.items) }

// FocalQueue is the Aε* OPEN list of §3.4. FOCAL holds the states with
// f(s') <= (1+ε)·min f(OPEN); Pop returns the FOCAL state preferred by the
// secondary heuristic (deepest partial schedule). The structure is three
// lazy heaps: pending (by f, not yet admitted), focal (by the secondary
// order), and all (by f, with lazy deletion, tracking min f).
//
// Lazy deletion is counted, not flagged: the parallel engine's load sharing
// can legitimately re-Push a pointer that was Popped from this queue
// earlier (it ping-ponged through another PPE), so `all` may hold several
// copies of one pointer, some dead and some live. A boolean tombstone would
// be consumed by whichever copy surfaces first and turn the remaining dead
// copy into a live "ghost" whose f deflates MinF forever — the multiset
// count keeps pushes and pops exactly balanced.
//
// Dead entries are not left to surface lazily at the top: whenever they
// exceed half of `all`, compact sweeps them (and their `removed` counts)
// out eagerly, so the retained memory of both structures stays proportional
// to the live queue, not to the total pop history.
type FocalQueue struct {
	eps     float64
	pending *heapx.Heap[*State]
	focal   *heapx.Heap[*State]
	all     *heapx.Heap[*State]
	removed map[*State]int // pops not yet purged from all, per pointer
	dead    int            // total count over removed: dead copies inside all
}

// NewFocalQueue returns an empty FOCAL queue with the given ε.
func NewFocalQueue(eps float64) *FocalQueue {
	return &FocalQueue{
		eps:     eps,
		pending: heapx.NewWithCapacity(Less, 1024),
		focal:   heapx.NewWithCapacity(FocalLess, 1024),
		all:     heapx.NewWithCapacity(func(a, b *State) bool { return a.f < b.f }, 2048),
		removed: make(map[*State]int, 1024),
	}
}

// Push inserts a state.
func (q *FocalQueue) Push(s *State) {
	q.pending.Push(s)
	q.all.Push(s)
}

// MinF returns the minimum f over queued states.
func (q *FocalQueue) MinF() (int32, bool) {
	for q.all.Len() > 0 && q.removed[q.all.Peek()] > 0 {
		s := q.all.Pop()
		q.dead--
		if q.removed[s] == 1 {
			delete(q.removed, s)
		} else {
			q.removed[s]--
		}
	}
	if q.all.Len() == 0 {
		return 0, false
	}
	return q.all.Peek().f, true
}

// compact rebuilds `all` without its dead copies once they exceed half the
// heap, consuming the matching `removed` counts. Only the multiset of f
// values in `all` matters to MinF, so the rebuild cannot change any
// observable ordering.
func (q *FocalQueue) compact() {
	if q.dead*2 <= q.all.Len() {
		return
	}
	kept := make([]*State, 0, q.all.Len()-q.dead)
	for _, s := range q.all.Items() {
		if c := q.removed[s]; c > 0 {
			if c == 1 {
				delete(q.removed, s)
			} else {
				q.removed[s] = c - 1
			}
			continue
		}
		kept = append(kept, s)
	}
	q.all.Clear()
	for _, s := range kept {
		q.all.Push(s)
	}
	q.dead = 0
}

// Pop returns the deepest state within the FOCAL bound, or nil when empty.
func (q *FocalQueue) Pop() *State {
	for {
		fmin, ok := q.MinF()
		if !ok {
			return nil
		}
		bound := float64(fmin) * (1 + q.eps)
		for q.pending.Len() > 0 && float64(q.pending.Peek().f) <= bound {
			q.focal.Push(q.pending.Pop())
		}
		for q.focal.Len() > 0 {
			s := q.focal.Pop()
			if float64(s.f) > bound {
				// Stale: admitted under a larger bound that has since
				// shrunk (min f decreased); push back for later.
				q.pending.Push(s)
				continue
			}
			q.removed[s]++
			q.dead++
			q.compact()
			return s
		}
		// FOCAL drained by stale entries; re-establish the bound. The min-f
		// state always qualifies, so the migration above will refill FOCAL.
	}
}

// Len returns the number of queued states.
func (q *FocalQueue) Len() int { return q.pending.Len() + q.focal.Len() }

var (
	_ Queue = (*BestFirstQueue)(nil)
	_ Queue = (*FocalQueue)(nil)
)

// NewQueue returns the OPEN list matching opt: a FocalQueue when
// opt.Epsilon > 0, else a BestFirstQueue.
func NewQueue(opt Options) Queue {
	if opt.Epsilon > 0 {
		return NewFocalQueue(opt.Epsilon)
	}
	return NewBestFirstQueue()
}
