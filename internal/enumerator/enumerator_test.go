package enumerator

import (
	"sort"
	"sync"
	"testing"
)

func TestTakeDrainsInOrder(t *testing.T) {
	e := New([]Word{1, 2}, []Word{5, 7, 9})
	if e.Depth() != 2 {
		t.Errorf("Depth=%d", e.Depth())
	}
	var got []Word
	for {
		w, ok := e.Take()
		if !ok {
			break
		}
		got = append(got, w)
	}
	want := []Word{5, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if _, ok := e.Take(); ok {
		t.Error("Take after exhaustion succeeded")
	}
	if e.Remaining() != 0 {
		t.Error("Remaining after exhaustion != 0")
	}
}

func TestRootPartitionsCoverDomain(t *testing.T) {
	const domain, cores = 23, 4
	seen := map[Word]int{}
	for c := 0; c < cores; c++ {
		e := NewRoot(c, cores, domain)
		for {
			w, ok := e.Take()
			if !ok {
				break
			}
			seen[w]++
			if int(w)%cores != c {
				t.Errorf("core %d produced word %d", c, w)
			}
		}
	}
	if len(seen) != domain {
		t.Fatalf("partitions covered %d words, want %d", len(seen), domain)
	}
	for w, n := range seen {
		if n != 1 {
			t.Errorf("word %d produced %d times", w, n)
		}
	}
}

func TestRootRemaining(t *testing.T) {
	e := NewRoot(1, 4, 10) // words 1,5,9 -> 3 items
	if r := e.Remaining(); r != 3 {
		t.Errorf("Remaining=%d, want 3", r)
	}
	e.Take()
	if r := e.Remaining(); r != 2 {
		t.Errorf("Remaining=%d, want 2", r)
	}
	empty := NewRoot(3, 4, 2) // no words
	if empty.Remaining() != 0 {
		t.Error("empty root has remaining work")
	}
}

func TestStealOne(t *testing.T) {
	var s Stack
	e := New([]Word{4}, []Word{8, 9})
	s.Push(e)
	st, _, ok := s.Steal(nil, true)
	if !ok || len(st) != 2 || st[0] != 4 || st[1] != 8 {
		t.Fatalf("Steal=%v,%v", st, ok)
	}
	// Owner sees the remaining extension only.
	w, ok := e.Take()
	if !ok || w != 9 {
		t.Fatalf("owner Take=%v,%v, want 9", w, ok)
	}
	if _, _, ok := s.Steal(nil, true); ok {
		t.Error("steal from exhausted enumerator succeeded")
	}
}

func TestConcurrentTakeNoDuplicates(t *testing.T) {
	const n = 1000
	exts := make([]Word, n)
	for i := range exts {
		exts[i] = Word(i)
	}
	e := New(nil, exts)
	var mu sync.Mutex
	got := map[Word]int{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				w, ok := e.Take()
				if !ok {
					return
				}
				mu.Lock()
				got[w]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(got) != n {
		t.Fatalf("consumed %d distinct words, want %d", len(got), n)
	}
	for w, c := range got {
		if c != 1 {
			t.Errorf("word %d consumed %d times", w, c)
		}
	}
}

func TestStackPushPopTop(t *testing.T) {
	var s Stack
	if s.Top() != nil || s.Depth() != 0 {
		t.Error("empty stack not empty")
	}
	e1 := New(nil, []Word{1})
	e2 := New([]Word{1}, []Word{2})
	s.Push(e1)
	s.Push(e2)
	if s.Top() != e2 || s.Depth() != 2 {
		t.Error("Top/Depth wrong")
	}
	s.Pop()
	if s.Top() != e1 {
		t.Error("Pop wrong")
	}
	s.Clear()
	if s.Depth() != 0 {
		t.Error("Clear failed")
	}
}

func TestStackStealShallowest(t *testing.T) {
	var s Stack
	s.Push(New(nil, []Word{10, 11}))        // level 0
	s.Push(New([]Word{10}, []Word{20}))     // level 1
	s.Push(New([]Word{10, 20}, []Word{30})) // level 2
	st, _, ok := s.Steal(nil, true)
	if !ok || len(st) != 1 || st[0] != 10 {
		t.Fatalf("first steal=%v, want [10] from level 0", st)
	}
	st, _, ok = s.Steal(nil, true)
	if !ok || len(st) != 1 || st[0] != 11 {
		t.Fatalf("second steal=%v, want [11]", st)
	}
	// Level 0 drained; next steal comes from level 1.
	st, _, ok = s.Steal(nil, true)
	if !ok || len(st) != 2 || st[1] != 20 {
		t.Fatalf("third steal=%v, want [10 20]", st)
	}
	if !s.HasWork() {
		t.Error("level 2 still has work")
	}
	if _, _, ok := s.Steal(nil, true); !ok {
		t.Error("level 2 steal failed")
	}
	if s.HasWork() {
		t.Error("drained stack reports work")
	}
	if _, _, ok := s.Steal(nil, true); ok {
		t.Error("steal from drained stack succeeded")
	}
}

func TestConcurrentStealAndTakeDisjoint(t *testing.T) {
	// An owner taking from the top and thieves stealing from the bottom
	// must partition the extensions without loss or duplication.
	const n = 500
	exts := make([]Word, n)
	for i := range exts {
		exts[i] = Word(i)
	}
	var s Stack
	s.Push(New(nil, exts))
	var mu sync.Mutex
	got := map[Word]int{}
	record := func(w Word) {
		mu.Lock()
		got[w]++
		mu.Unlock()
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // owner
		defer wg.Done()
		top := s.Top()
		for {
			w, ok := top.Take()
			if !ok {
				return
			}
			record(w)
		}
	}()
	for i := 0; i < 2; i++ {
		go func() { // thieves
			defer wg.Done()
			for {
				st, _, ok := s.Steal(nil, true)
				if !ok {
					return
				}
				record(st[len(st)-1])
			}
		}()
	}
	wg.Wait()
	if len(got) != n {
		keys := make([]int, 0)
		for w := range got {
			keys = append(keys, int(w))
		}
		sort.Ints(keys)
		t.Fatalf("consumed %d distinct words, want %d", len(got), n)
	}
	for w, c := range got {
		if c != 1 {
			t.Errorf("word %d consumed %d times", w, c)
		}
	}
}

func TestStackAbandon(t *testing.T) {
	var s Stack
	s.Push(NewRoot(0, 1, 10))            // 10 unconsumed roots
	s.Push(New([]Word{1}, []Word{4, 5})) // 2 unconsumed extensions
	e := New([]Word{1, 4}, []Word{7, 8, 9})
	if _, ok := e.Take(); !ok { // consume one: 2 left
		t.Fatal("Take failed")
	}
	s.Push(e)

	if got := s.Abandon(); got != 14 {
		t.Errorf("Abandon=%d, want 14", got)
	}
	if s.Depth() != 0 {
		t.Errorf("stack not empty after Abandon: depth=%d", s.Depth())
	}
	if _, _, ok := s.Steal(nil, true); ok {
		t.Error("steal succeeded on abandoned stack")
	}
	if got := s.Abandon(); got != 0 {
		t.Errorf("second Abandon=%d, want 0", got)
	}
	// The stack must remain usable for the next step.
	s.Push(New([]Word{2}, []Word{6}))
	if s.Depth() != 1 || !s.HasWork() {
		t.Error("stack unusable after Abandon")
	}
}
