package enumerator

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

// Regression: Pop on an empty stack used to panic with an index error.
func TestPopEmptyStackIsNoOp(t *testing.T) {
	var s Stack
	s.Pop() // must not panic
	s.Push(New([]Word{1}, []Word{2}))
	s.Pop()
	s.Pop() // empty again
	if s.Depth() != 0 {
		t.Fatalf("Depth = %d, want 0", s.Depth())
	}
}

// Regression: NewRoot used to truncate the domain to int32 silently, turning
// an oversized domain into a wrong (possibly negative) iteration bound.
func TestNewRootRejectsOversizedDomain(t *testing.T) {
	if math.MaxInt <= math.MaxInt32 {
		t.Skip("32-bit platform cannot represent an oversized domain")
	}
	for _, domain := range []int{-1, math.MaxInt32 + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRoot(0, 1, %d) did not panic", domain)
				}
			}()
			NewRoot(0, 1, domain)
		}()
	}
	// The boundary value is accepted.
	if e := NewRoot(0, 1, math.MaxInt32); e.Remaining() != math.MaxInt32 {
		t.Fatalf("Remaining = %d, want %d", e.Remaining(), math.MaxInt32)
	}
}

func TestPushCopyDoesNotAliasArguments(t *testing.T) {
	var s Stack
	prefix := []Word{1, 2}
	exts := []Word{3, 4}
	e := s.PushCopy(prefix, exts)
	prefix[0], exts[0] = 99, 99
	if got := e.Prefix(); got[0] != 1 || got[1] != 2 {
		t.Fatalf("prefix aliased caller slice: %v", got)
	}
	if w, ok := e.Take(); !ok || w != 3 {
		t.Fatalf("Take = %d,%v, want 3,true", w, ok)
	}
}

// A popped level must read as exhausted even to a consumer that still holds
// the pointer, and its storage must be recycled into the next level.
func TestPopRetiresLevelForStaleHolders(t *testing.T) {
	var s Stack
	e := s.PushCopy([]Word{1}, []Word{10, 11, 12})
	s.Pop()
	if _, ok := e.Take(); ok {
		t.Fatal("Take succeeded on a retired level")
	}
	if _, _, ok := s.Steal(nil, true); ok {
		t.Fatal("Steal reached a retired level")
	}
	if n := e.Remaining(); n != 0 {
		t.Fatalf("Remaining = %d on a retired level, want 0", n)
	}
	e2 := s.PushCopy([]Word{2}, []Word{20})
	if e2 != e {
		t.Fatal("PushCopy did not recycle the popped enumerator")
	}
	if w, ok := e2.Take(); !ok || w != 20 {
		t.Fatalf("recycled level Take = %d,%v, want 20,true", w, ok)
	}
}

func TestClearAndAbandonRecycle(t *testing.T) {
	var s Stack
	a := s.PushCopy([]Word{1}, []Word{10, 11})
	b := s.PushCopy([]Word{1, 10}, []Word{20})
	s.Clear()
	if s.Depth() != 0 {
		t.Fatalf("Depth = %d after Clear, want 0", s.Depth())
	}
	c := s.PushCopy([]Word{3}, []Word{30})
	if c != a && c != b {
		t.Fatal("Clear did not recycle enumerators")
	}
	s.PushCopy([]Word{3, 30}, []Word{40, 41, 42})
	if got := s.Abandon(); got != 4 {
		t.Fatalf("Abandon = %d unconsumed extensions, want 4", got)
	}
	if s.HasWork() {
		t.Fatal("HasWork after Abandon")
	}
}

// Steady state of the DFS loop: PushCopy+Pop with stable sizes must not
// allocate once the pools are warm.
func TestPushCopyPopSteadyStateAllocFree(t *testing.T) {
	var s Stack
	prefix := []Word{1, 2, 3}
	exts := []Word{4, 5, 6, 7}
	for i := 0; i < 4; i++ { // warm the pools
		s.PushCopy(prefix, exts)
	}
	s.Clear()
	allocs := testing.AllocsPerRun(200, func() {
		s.PushCopy(prefix, exts)
		s.Pop()
	})
	if allocs != 0 {
		t.Errorf("PushCopy+Pop allocates %.1f times per cycle in steady state, want 0", allocs)
	}
}

// Pools are bounded: a deep stack cleared at once must not retain unbounded
// free-list memory.
func TestPoolCaps(t *testing.T) {
	var s Stack
	for i := 0; i < 3*maxPoolEnums; i++ {
		s.PushCopy([]Word{Word(i)}, []Word{Word(i + 1)})
	}
	s.Clear()
	if len(s.freeEnums) > maxPoolEnums {
		t.Fatalf("freeEnums grew to %d, cap is %d", len(s.freeEnums), maxPoolEnums)
	}
	if len(s.freeBufs) > maxPoolBufs {
		t.Fatalf("freeBufs grew to %d, cap is %d", len(s.freeBufs), maxPoolBufs)
	}
}

// Concurrent churn: one owner running the push/take/pop DFS loop while
// thieves hammer a waiting Steal. Every word must be consumed exactly once
// across owner and thieves — recycling must never surface a stale extension.
// Run with -race to check the locking discipline.
func TestConcurrentStealChurn(t *testing.T) {
	stealChurn(t, func(s *Stack, _ []Word) ([]Word, bool) {
		stolen, _, ok := s.Steal(nil, true)
		return stolen, ok
	})
}

// The same churn with the execution cores' discipline: thieves that never
// wait on a victim lock and steal into a reused buffer, while the owner
// also reads its level list unlocked (Top, StateBytes). A thief yields
// after a miss, as a core naps between failed attempts: thieves spinning
// without pause would starve the owner of CPU instead of testing it.
func TestConcurrentNonBlockingStealChurn(t *testing.T) {
	stealChurn(t, func(s *Stack, buf []Word) ([]Word, bool) {
		stolen, _, ok := s.Steal(buf, false)
		if !ok {
			runtime.Gosched()
		}
		return stolen, ok
	})
}

func stealChurn(t *testing.T, steal func(s *Stack, buf []Word) ([]Word, bool)) {
	const (
		rounds  = 2000
		perLvl  = 8
		thieves = 4
	)
	var s Stack
	counts := make([]int32, rounds*perLvl)
	var mu sync.Mutex
	record := func(w Word) {
		mu.Lock()
		counts[w]++
		mu.Unlock()
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]Word, 0, 4)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if stolen, ok := steal(&s, buf); ok {
					record(stolen[len(stolen)-1])
				}
			}
		}()
	}
	var exts [perLvl]Word
	for r := 0; r < rounds; r++ {
		for i := range exts {
			exts[i] = Word(r*perLvl + i)
		}
		e := s.PushCopy([]Word{Word(r)}, exts[:])
		if s.Top() != e || s.StateBytes() <= 0 {
			t.Fatalf("round %d: owner view of its stack is stale", r)
		}
		for {
			w, ok := e.Take()
			if !ok {
				break
			}
			record(w)
		}
		s.Pop()
	}
	close(stop)
	wg.Wait()
	for w, n := range counts {
		if n != 1 {
			t.Fatalf("word %d consumed %d times, want exactly once", w, n)
		}
	}
}
