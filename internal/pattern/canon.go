package pattern

import (
	"bytes"
	"sync"
)

// This file implements canonical labeling: the ρ(S) function of Section 2.1.
// The paper uses the gSpan minimum-DFS-code algorithm; any total order over
// isomorphism classes works, and we use the minimum adjacency code under all
// vertex orderings, found by branch-and-bound. Edges are encoded "present
// sorts first" so that connected orderings are explored early, which makes
// the bound tight almost immediately for the small, dense patterns GPM
// produces.

// Canon is the canonical form of a Pattern: a code string usable as a map
// key (equal iff isomorphic) and the permutation that realizes it.
type Canon struct {
	// Code is the canonical byte string of the pattern.
	Code string
	// Perm maps each original pattern vertex to its canonical position.
	Perm []int
}

const (
	edgePresent byte = 0 // present sorts before absent: prefer dense prefixes
	edgeAbsent  byte = 1
)

// rowLen returns the encoded length of the row for canonical position i.
func rowLen(i int) int { return 4 + i*5 }

// codeLen returns the total encoded length for an n-vertex pattern.
func codeLen(n int) int {
	total := 1
	for i := 0; i < n; i++ {
		total += rowLen(i)
	}
	return total
}

// appendLabel appends the big-endian encoding of l.
func appendLabel(dst []byte, l int32) []byte {
	return append(dst, byte(uint32(l)>>24), byte(uint32(l)>>16), byte(uint32(l)>>8), byte(uint32(l)))
}

// Canonical computes the canonical form of p. The computation is exponential
// in the worst case but patterns are tiny (the paper mines subgraphs of at
// most ~7 vertices); combine with a CodeCache for hot loops.
func (p *Pattern) Canonical() Canon {
	n := p.n
	if n == 0 {
		return Canon{Code: string([]byte{0}), Perm: []int{}}
	}
	var (
		best     []byte
		bestSlot = make([]int, n)
		cur      = make([]byte, 1, codeLen(n))
		slot     = make([]int, n) // canonical position -> original vertex
		used     uint32
		row      = make([]byte, 0, rowLen(n-1))
	)
	cur[0] = byte(n)

	var rec func(i int, tight bool)
	rec = func(i int, tight bool) {
		if i == n {
			// best may have improved since the tight flags on this path were
			// computed, so compare in full before replacing.
			if best == nil || bytes.Compare(cur, best) < 0 {
				best = append(best[:0], cur...)
				copy(bestSlot, slot)
			}
			return
		}
		off := len(cur)
		for v := 0; v < n; v++ {
			if used&(1<<uint(v)) != 0 {
				continue
			}
			// Encode row: vertex label then adjacency to placed vertices.
			row = row[:0]
			row = appendLabel(row, int32(p.vlabels[v]))
			for j := 0; j < i; j++ {
				u := slot[j]
				if p.HasEdge(v, u) {
					row = append(row, edgePresent)
					row = appendLabel(row, int32(p.EdgeLabel(v, u)))
				} else {
					row = append(row, edgeAbsent)
					row = appendLabel(row, int32(NoLabel))
				}
			}
			childTight := tight
			if best != nil {
				cmp := bytes.Compare(row, best[off:off+len(row)])
				if tight && cmp > 0 {
					continue // this branch can no longer reach the minimum
				}
				childTight = tight && cmp == 0
			}
			cur = append(cur, row...)
			slot[i] = v
			used |= 1 << uint(v)
			rec(i+1, childTight)
			used &^= 1 << uint(v)
			cur = cur[:off]
		}
	}
	rec(0, true)

	perm := make([]int, n)
	for pos, v := range bestSlot {
		perm[v] = pos
	}
	return Canon{Code: string(best), Perm: perm}
}

// CodeCache memoizes canonical forms keyed by the exact structural
// fingerprint of the pattern (identical labeled graphs on 0..n-1, which is
// what repeated embeddings produce). Safe for concurrent use.
type CodeCache struct {
	mu     sync.RWMutex
	m      map[string]Canon
	reps   map[string]*Pattern // canonical code -> shared representative
	maxLen int
}

// NewCodeCache returns a cache bounded to maxEntries (<=0 means a default of
// 1<<18). When full the cache is cleared wholesale; GPM workloads have a
// small working set of distinct fingerprints, so this almost never happens.
func NewCodeCache(maxEntries int) *CodeCache {
	if maxEntries <= 0 {
		maxEntries = 1 << 18
	}
	return &CodeCache{m: make(map[string]Canon), reps: make(map[string]*Pattern), maxLen: maxEntries}
}

// Canonical returns the canonical form of p, consulting the cache.
func (c *CodeCache) Canonical(p *Pattern) Canon {
	fp := p.Fingerprint()
	c.mu.RLock()
	canon, ok := c.m[fp]
	c.mu.RUnlock()
	if ok {
		return canon
	}
	canon = p.Canonical()
	c.mu.Lock()
	if len(c.m) >= c.maxLen {
		c.m = make(map[string]Canon)
	}
	c.m[fp] = canon
	if _, ok := c.reps[canon.Code]; !ok {
		// Retain the relabeled-to-canonical-positions pattern, so every
		// vertex numbering of the class maps to the same representative.
		c.reps[canon.Code] = p.Relabel(canon.Perm)
	}
	c.mu.Unlock()
	return canon
}

// Representative returns the single shared pattern this cache associates
// with p's isomorphism class: the class pattern relabeled to its canonical
// vertex order. All callers that canonicalize through the same cache receive
// the identical *Pattern pointer (and byte-identical encodings) for a given
// class, which makes "first representative wins" reductions independent of
// embedding arrival and merge order. Aggregation value functions should
// carry this pattern rather than the embedding's own numbering.
func (c *CodeCache) Representative(p *Pattern) *Pattern {
	_, rep := c.CanonicalRep(p)
	return rep
}

// CanonicalRep returns the canonical form of p together with the class's
// shared representative in one cache round trip (the aggregation hot loop
// needs both: Perm aligns domain positions, the representative is the
// reported pattern).
func (c *CodeCache) CanonicalRep(p *Pattern) (Canon, *Pattern) {
	canon := c.Canonical(p)
	c.mu.RLock()
	rep := c.reps[canon.Code]
	c.mu.RUnlock()
	if rep != nil {
		return canon, rep
	}
	// The Canon entry was already cached before representative tracking saw
	// this class (or p raced a wholesale eviction): rebuild. Relabeling to
	// canonical positions is deterministic, so every rebuild of a class
	// yields the same labeled graph.
	rep = p.Relabel(canon.Perm)
	c.mu.Lock()
	if cur, ok := c.reps[canon.Code]; ok {
		rep = cur
	} else {
		c.reps[canon.Code] = rep
	}
	c.mu.Unlock()
	return canon, rep
}
