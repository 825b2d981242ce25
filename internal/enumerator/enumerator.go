// Package enumerator implements the SubgraphEnumerator abstraction of
// Figure 7 of the Fractal paper and the per-core enumerator stacks that the
// hierarchical work-stealing mechanism of Section 4.2 operates on.
//
// An Enumerator is identified by an enumeration prefix (the subgraph under
// extension) and holds the precomputed extension candidates of that prefix.
// Consumption of extensions is thread-safe and constitutes the only critical
// section shared between an owning core and thieves, which keeps stealing
// overhead low (Section 6 reports ~1%).
//
// Allocation discipline. A DFS step churns through one enumerator per
// enumerated subgraph, so the Stack pools both the Enumerator objects and
// their word slices: PushCopy copies a prefix and extension list into pooled
// storage, and Pop returns the retired level's storage to the pool. Retiring
// a level marks it dead under its own mutex before its slices are reused, so
// a thief still holding the pointer from an earlier scan observes an empty
// enumerator instead of recycled memory.
package enumerator

import (
	"fmt"
	"math"
	"sync"
	"time"

	"fractal/internal/subgraph"
)

// Word re-exports the extension unit for convenience.
type Word = subgraph.Word

// Enumerator holds one enumeration prefix and its remaining extensions.
// Take and a thief's Stack.Steal may run concurrently; everything else is
// owned by the constructing core.
type Enumerator struct {
	mu     sync.Mutex
	prefix []Word
	exts   []Word
	next   int
	// dead marks a level retired by its owning Stack: its slices may have
	// been recycled into new levels, so every consumer must observe it as
	// exhausted. Set and read under mu.
	dead bool

	// Depth-0 enumerators iterate an implicit strided slice of the initial
	// domain instead of a materialized extension list.
	root   bool
	cursor int32
	limit  int32
	stride int32
}

// New returns an enumerator for the given prefix and extension candidates.
// The enumerator takes ownership of both slices.
func New(prefix []Word, exts []Word) *Enumerator {
	return &Enumerator{prefix: prefix, exts: exts}
}

// NewRoot returns the depth-0 enumerator of a core: it yields the initial
// extension words {coreID, coreID+totalCores, ...} below domain, the
// on-the-fly partition of the input graph described in Section 4
// ("Scheduling and execution"). domain must fit in an int32 extension word;
// NewRoot panics instead of silently truncating it.
func NewRoot(coreID, totalCores, domain int) *Enumerator {
	if domain < 0 || domain > math.MaxInt32 {
		panic(fmt.Sprintf("enumerator: initial domain %d does not fit int32 extension words", domain))
	}
	return &Enumerator{
		root:   true,
		cursor: int32(coreID),
		limit:  int32(domain),
		stride: int32(totalCores),
	}
}

// Prefix returns the enumeration prefix. Owner-only: pooled levels may have
// their prefix recycled after Pop, so only the core that pushed the level
// (and external tests holding non-pooled enumerators) may call it.
func (e *Enumerator) Prefix() []Word { return e.prefix }

// Depth returns the number of words in the prefix. Owner-only, like Prefix.
func (e *Enumerator) Depth() int { return len(e.prefix) }

// Take consumes and returns the next extension. ok is false when the
// enumerator is exhausted (or retired by its stack).
func (e *Enumerator) Take() (w Word, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.takeLocked()
}

func (e *Enumerator) takeLocked() (w Word, ok bool) {
	if e.dead {
		return 0, false
	}
	if e.root {
		if e.cursor >= e.limit {
			return 0, false
		}
		w = e.cursor
		e.cursor += e.stride
		return w, true
	}
	if e.next >= len(e.exts) {
		return 0, false
	}
	w = e.exts[e.next]
	e.next++
	return w, true
}

// Remaining returns the (instantaneous) number of unconsumed extensions.
func (e *Enumerator) Remaining() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.remainingLocked()
}

func (e *Enumerator) remainingLocked() int {
	if e.dead {
		return 0
	}
	if e.root {
		if e.cursor >= e.limit {
			return 0
		}
		return int((e.limit-e.cursor-1)/e.stride) + 1
	}
	return len(e.exts) - e.next
}

// stateWords returns prefix length plus unconsumed extensions, the words of
// live state this level pins (Section 4.1, Table 2).
func (e *Enumerator) stateWords() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead {
		return 0
	}
	return len(e.prefix) + e.remainingLocked()
}

// stealLocked consumes one extension on behalf of a thief and appends the
// full stolen prefix (this enumerator's prefix plus the taken word) to
// dst[:0]. This is the extend() of Figure 7 applied by a non-owner: the
// subgraph prefix is copied and the extension consumption is the short
// critical section shared with the owner. The caller holds e.mu, so a
// concurrent Pop cannot recycle the prefix out from under the thief.
func (e *Enumerator) stealLocked(dst []Word) (stolen []Word, ok bool) {
	w, ok := e.takeLocked()
	if !ok {
		return nil, false
	}
	return append(append(dst[:0], e.prefix...), w), true
}

// retire marks the enumerator dead and detaches its slices for reuse.
func (e *Enumerator) retire() (prefix, exts []Word) {
	e.mu.Lock()
	e.dead = true
	prefix, exts = e.prefix, e.exts
	e.prefix, e.exts = nil, nil
	e.mu.Unlock()
	return prefix, exts
}

// revive prepares a pooled enumerator for a new level. The reset happens
// under mu because a stale thief may race a Steal against it.
func (e *Enumerator) revive(prefix, exts []Word) {
	e.mu.Lock()
	e.dead = false
	e.root = false
	e.next = 0
	e.cursor, e.limit, e.stride = 0, 0, 0
	e.prefix, e.exts = prefix, exts
	e.mu.Unlock()
}

// Pool size caps: deep enough for any realistic enumeration depth, small
// enough that an idle core pins only a few KB.
const (
	maxPoolEnums = 64
	maxPoolBufs  = 128
)

// Stack is the per-core stack of live enumerators, one per extension level
// (the depth-first state of Algorithm 1). The owning core pushes and pops;
// thieves scan it bottom-up to steal the shallowest available work, which
// maximizes the size of the stolen subtree.
type Stack struct {
	mu     sync.Mutex
	levels []*Enumerator

	// Free lists for PushCopy/Pop recycling.
	freeEnums []*Enumerator
	freeBufs  [][]Word
}

// Push appends a level. The enumerator becomes stack-owned: a later Pop,
// Clear, or Abandon retires it and recycles its slices.
func (s *Stack) Push(e *Enumerator) {
	s.mu.Lock()
	s.levels = append(s.levels, e)
	s.mu.Unlock()
}

// PushCopy appends a level holding copies of prefix and exts in pooled
// storage — the allocation-free steady-state path of the DFS loop. The
// caller keeps ownership of both arguments.
func (s *Stack) PushCopy(prefix, exts []Word) *Enumerator {
	s.mu.Lock()
	e := s.takeEnumLocked()
	p := append(s.takeBufLocked(), prefix...)
	x := append(s.takeBufLocked(), exts...)
	e.revive(p, x)
	s.levels = append(s.levels, e)
	s.mu.Unlock()
	return e
}

func (s *Stack) takeEnumLocked() *Enumerator {
	if n := len(s.freeEnums); n > 0 {
		e := s.freeEnums[n-1]
		s.freeEnums = s.freeEnums[:n-1]
		return e
	}
	return &Enumerator{}
}

func (s *Stack) takeBufLocked() []Word {
	if n := len(s.freeBufs); n > 0 {
		b := s.freeBufs[n-1]
		s.freeBufs = s.freeBufs[:n-1]
		return b[:0]
	}
	return nil
}

// recycleLocked retires e and returns its storage to the pools.
func (s *Stack) recycleLocked(e *Enumerator) {
	prefix, exts := e.retire()
	if !e.root && len(s.freeEnums) < maxPoolEnums {
		s.freeEnums = append(s.freeEnums, e)
	}
	if prefix != nil && len(s.freeBufs) < maxPoolBufs {
		s.freeBufs = append(s.freeBufs, prefix)
	}
	if exts != nil && len(s.freeBufs) < maxPoolBufs {
		s.freeBufs = append(s.freeBufs, exts)
	}
}

// Pop removes and recycles the top level. Popping an empty stack is a no-op.
func (s *Stack) Pop() {
	s.mu.Lock()
	if n := len(s.levels); n > 0 {
		e := s.levels[n-1]
		s.levels = s.levels[:n-1]
		s.recycleLocked(e)
	}
	s.mu.Unlock()
}

// Top returns the top level, or nil when empty. Owner-only: the owner is
// the sole writer of the level list, so its own read needs no lock (thieves
// only read the list, under mu), and the DFS loop's per-iteration Top costs
// no lock round trip.
func (s *Stack) Top() *Enumerator {
	if len(s.levels) == 0 {
		return nil
	}
	return s.levels[len(s.levels)-1]
}

// Depth returns the number of live levels.
func (s *Stack) Depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.levels)
}

// Clear drops all levels (end of a step), recycling their storage.
func (s *Stack) Clear() {
	s.mu.Lock()
	for _, e := range s.levels {
		s.recycleLocked(e)
	}
	s.levels = s.levels[:0]
	s.mu.Unlock()
}

// Abandon drops all levels and returns the number of unconsumed extensions
// discarded with them. A cancelled step calls this instead of Clear so the
// runtime can report how much enumeration work was left behind (a lower
// bound: each abandoned extension rooted an unexplored subtree). Levels are
// retired before recycling, so thieves holding a snapshot of them find no
// work — cancelled subtrees cannot leak back in through a steal.
func (s *Stack) Abandon() int64 {
	s.mu.Lock()
	var n int64
	for _, e := range s.levels {
		n += int64(e.Remaining())
		s.recycleLocked(e)
	}
	s.levels = nil
	s.mu.Unlock()
	return n
}

// StealCost is the cost of one steal attempt on a stack.
type StealCost struct {
	// Locks counts the lock acquisitions attempted: the stack's plus one
	// per level probed.
	Locks int
	// Held is the wall time spent holding the victim's locks, excluding
	// the unlocks: releasing a mutex a starved owner waits on hands the
	// caller's time slice to the owner, and that wait is not steal work.
	Held time.Duration
}

// Steal scans levels bottom-up and steals one extension from the first
// enumerator that still has work, appending the stolen prefix to dst[:0]
// and reporting the attempt's cost. With wait true it waits for locks held
// by the owner. With wait false the thief never blocks on the victim: a stack or level whose mutex is held is skipped, so a failed
// attempt may miss work the owner is touching at that instant and the
// thief simply retries later. Execution cores steal that way — blocking
// would park a thief behind the owner, and on an oversubscribed host the
// park can last a scheduler time slice — and into a reused dst, so the
// attempt does not allocate either.
func (s *Stack) Steal(dst []Word, wait bool) (stolen []Word, cost StealCost, ok bool) {
	lock := func(mu *sync.Mutex) bool {
		cost.Locks++
		if wait {
			mu.Lock()
			return true
		}
		return mu.TryLock()
	}
	if !lock(&s.mu) {
		return nil, cost, false
	}
	start := time.Now()
	for _, e := range s.levels {
		if !lock(&e.mu) {
			continue
		}
		stolen, ok = e.stealLocked(dst)
		cost.Held += time.Since(start)
		e.mu.Unlock()
		if ok {
			s.mu.Unlock()
			return stolen, cost, true
		}
		start = time.Now()
	}
	cost.Held += time.Since(start)
	s.mu.Unlock()
	return nil, cost, false
}

// StateBytes estimates the live memory of the stack: 4 bytes per prefix
// word and per unconsumed extension across all levels. This is Fractal's
// entire per-core intermediate state (Section 4.1, Table 2). Owner-only,
// like Top: the owner reads its own level list without the stack lock
// (and without copying it), locking each level only to read its cursor.
func (s *Stack) StateBytes() int64 {
	var total int64
	for _, e := range s.levels {
		total += int64(4 * e.stateWords())
	}
	return total
}

// HasWork reports whether any level has unconsumed extensions.
func (s *Stack) HasWork() bool {
	s.mu.Lock()
	snapshot := append([]*Enumerator(nil), s.levels...)
	s.mu.Unlock()
	for _, e := range snapshot {
		if e.Remaining() > 0 {
			return true
		}
	}
	return false
}
