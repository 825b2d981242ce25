package subgraph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fractal/internal/agg"
	"fractal/internal/graph"
	"fractal/internal/pattern"
)

// checkCanon pins e.Canon(cache) against the uncached two-step reference
// cache.CanonicalRep(e.Pattern()): the same code, the same permutation and
// the identical shared representative. Canon runs first, so a memo miss is
// what populates the cache the reference then reads.
func checkCanon(t *testing.T, e *Embedding, cache *pattern.CodeCache) {
	t.Helper()
	got, gotRep := e.Canon(cache)
	want, wantRep := cache.CanonicalRep(e.Pattern())
	if got.Code != want.Code || !slices.Equal(got.Perm, want.Perm) || gotRep != wantRep {
		t.Fatalf("%s %s words=%v: Canon = (%x, %v, %p), reference (%x, %v, %p)",
			e.g.Name(), e.kind, e.words, got.Code, got.Perm, gotRep, want.Code, want.Perm, wantRep)
	}
	// The memoized result for the unchanged state is the same value.
	again, againRep := e.Canon(cache)
	if again.Code != got.Code || !slices.Equal(again.Perm, got.Perm) || againRep != gotRep {
		t.Fatalf("%s %s words=%v: repeated Canon changed its result", e.g.Name(), e.kind, e.words)
	}
}

// canonWalk drives e through a random sequence of Push, Pop and Replay
// operations (at most maxDepth words deep) and checks Canon after every one.
// It returns the number of checked states in which parallel edges collapsed
// (the embedding holds more edges than its pattern).
func canonWalk(t *testing.T, e *Embedding, cache *pattern.CodeCache, maxDepth, ops int, seed int64) (collapsed int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var exts []Word
	for op := 0; op < ops; op++ {
		switch r := rng.Intn(10); {
		case e.Len() == 0:
			w := Word(rng.Intn(e.InitialDomain()))
			if !e.ValidInitial(w) {
				continue
			}
			e.Push(w)
		case r < 6 && e.Len() < maxDepth:
			exts, _ = e.Extensions(exts[:0])
			if len(exts) == 0 {
				e.Pop()
				break
			}
			e.Push(exts[rng.Intn(len(exts))])
		case r < 9:
			e.Pop()
		default:
			e.Replay(slices.Clone(e.Words()[:rng.Intn(e.Len()+1)]))
		}
		checkCanon(t, e, cache)
		if e.NumEdges() > e.Pattern().NumEdges() {
			collapsed++
		}
	}
	return collapsed
}

func TestCanonDifferential(t *testing.T) {
	type canonCase struct {
		name  string
		emb   *Embedding
		depth int
	}
	cases := []canonCase{
		{"vertex-induced", New(oracleMultigraph("canon-vi", 60, 260, 3, 21), VertexInduced, nil), 5},
		{"edge-induced", New(oracleMultigraph("canon-ei", 40, 200, 3, 22), EdgeInduced, nil), 4},
	}
	for i, pl := range oraclePlans(t) {
		g := oracleMultigraph("canon-pi", 40, 200, 3, 23)
		cases = append(cases, canonCase{fmt.Sprintf("pattern-induced-%d", i), New(g, PatternInduced, pl), len(pl.Order)})
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cache := pattern.NewCodeCache(0)
			checkCanon(t, c.emb, cache) // the empty embedding
			collapsed := canonWalk(t, c.emb, cache, c.depth, 600, int64(i))
			if c.emb.Kind() == EdgeInduced && collapsed == 0 {
				t.Error("no walked state collapsed parallel edges")
			}
		})
	}
}

// One embedding alternating between two caches must return each cache's
// own representative, never a result memoized from the other.
func TestCanonSwitchesCaches(t *testing.T) {
	g := oracleMultigraph("canon-switch", 40, 200, 3, 24)
	e := New(g, EdgeInduced, nil)
	c1, c2 := pattern.NewCodeCache(0), pattern.NewCodeCache(0)
	rng := rand.New(rand.NewSource(5))
	var exts []Word
	for walk := 0; walk < 50; walk++ {
		e.Reset()
		e.Push(Word(rng.Intn(e.InitialDomain())))
		for e.Len() < 3 {
			exts, _ = e.Extensions(exts[:0])
			if len(exts) == 0 {
				break
			}
			e.Push(exts[rng.Intn(len(exts))])
		}
		checkCanon(t, e, c1)
		checkCanon(t, e, c2)
		_, r1 := e.Canon(c1)
		_, r2 := e.Canon(c2)
		if r1 == r2 {
			t.Fatalf("words=%v: two caches share representative %p", e.Words(), r1)
		}
	}
}

// More distinct quick patterns than the memo holds: the wholesale clear
// keeps the memo bounded and every result correct.
func TestCanonMemoBound(t *testing.T) {
	b := graph.NewBuilder("canon-labels")
	for v := 0; v < maxMemo+100; v++ {
		b.AddVertex(graph.Label(v))
	}
	g := b.Build()
	e := New(g, VertexInduced, nil)
	cache := pattern.NewCodeCache(0)
	for v := 0; v < g.NumVertices(); v++ {
		e.Replay([]Word{Word(v)})
		checkCanon(t, e, cache)
		if len(e.canon.memo) > maxMemo {
			t.Fatalf("memo holds %d entries, bound %d", len(e.canon.memo), maxMemo)
		}
	}
}

// BenchmarkEmbeddingCanon measures the FSM per-embedding path on a memo hit:
// invalidate by Pop/Push of the last edge, then Canon plus the MNI support
// contribution, folded into an aggregation as the runtime does (which
// returns the scratch contribution to its pool).
func BenchmarkEmbeddingCanon(b *testing.B) {
	g := oracleMultigraph("bench-canon", 400, 2400, 4, 25)
	e := New(g, EdgeInduced, nil)
	hub := graph.VertexID(hubVertex(g))
	e.Push(Word(g.IncidentEdges(hub)[0]))
	for e.Len() < 3 {
		exts, _ := e.Extensions(nil)
		e.Push(exts[len(exts)/2])
	}
	last := e.Words()[2]
	cache := pattern.NewCodeCache(0)
	a := agg.New[string, *agg.DomainSupport](agg.ReduceDomainSupport)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Pop()
		e.Push(last)
		canon, rep := e.Canon(cache)
		a.Add(canon.Code, agg.ScratchDomainSupport(rep, 2, e.Vertices(), canon.Perm))
	}
}
