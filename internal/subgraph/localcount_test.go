package subgraph

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"fractal/internal/graph"
	"fractal/internal/pattern"
	"fractal/internal/workload"
)

// bruteLocals computes the sweep's locals the slow way: distinct-neighbor
// degrees, distinct common-neighbor counts per distinct adjacent pair, and
// per-vertex triangle counts, all over the simple-graph skeleton.
func bruteLocals(g *graph.Graph) (sdeg []int64, pairs [][3]int64, tri []int64) {
	n := g.NumVertices()
	adj := make([]map[graph.VertexID]bool, n)
	for v := 0; v < n; v++ {
		adj[v] = map[graph.VertexID]bool{}
		for _, w := range g.Neighbors(graph.VertexID(v)) {
			adj[v][w] = true
		}
	}
	sdeg = make([]int64, n)
	tri = make([]int64, n)
	for v := 0; v < n; v++ {
		sdeg[v] = int64(len(adj[v]))
	}
	for u := 0; u < n; u++ {
		for w := range adj[u] {
			if int(w) <= u {
				continue
			}
			var c int64
			for x := range adj[u] {
				if adj[int(w)][x] {
					c++
				}
			}
			pairs = append(pairs, [3]int64{int64(u), int64(w), c})
			tri[u] += c
			tri[int(w)] += c
		}
	}
	for v := range tri {
		tri[v] /= 2
	}
	return sdeg, pairs, tri
}

func localTestGraphs() []*graph.Graph {
	small := graph.NewBuilder("lc-hand")
	for i := 0; i < 6; i++ {
		small.AddVertex()
	}
	// Two triangles sharing vertex 0, a pendant at 5 — plus parallel edges
	// that the dedup must erase.
	for _, e := range [][2]graph.VertexID{{0, 1}, {1, 2}, {0, 2}, {0, 3}, {3, 4}, {0, 4}, {4, 5}, {0, 1}, {3, 4}} {
		small.MustAddEdge(e[0], e[1])
	}
	return []*graph.Graph{
		small.Build(),
		workload.ErdosRenyi("lc-er", 60, 220, 1, 41),
		workload.BarabasiAlbert("lc-ba", 80, 4, 1, 42),
		oracleMultigraph("lc-multi", 40, 160, 1, 43),
		// Every degree ties: the vertex-id half of the rank alone decides
		// which endpoint owns each pair.
		cliqueGraph("lc-clique", 9),
		ringLattice("lc-ring", 30, 3),
		hubMultigraph("lc-hub", 50, 46),
	}
}

// cliqueGraph is K_n: every pair adjacent, every degree n-1.
func cliqueGraph(name string, n int) *graph.Graph {
	b := graph.NewBuilder(name)
	for i := 0; i < n; i++ {
		b.AddVertex()
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.MustAddEdge(graph.VertexID(u), graph.VertexID(v))
		}
	}
	return b.Build()
}

// ringLattice joins each of n ring vertices to its r nearest successors:
// every degree is 2r and every adjacent pair has common neighbors.
func ringLattice(name string, n, r int) *graph.Graph {
	b := graph.NewBuilder(name)
	for i := 0; i < n; i++ {
		b.AddVertex()
	}
	for u := 0; u < n; u++ {
		for j := 1; j <= r; j++ {
			b.MustAddEdge(graph.VertexID(u), graph.VertexID((u+j)%n))
		}
	}
	return b.Build()
}

// hubMultigraph is a hub (vertex 0) joined to every spoke, the spokes
// chained into a path, with one to three parallel edges per hub incidence:
// the hub owns every pair it is in and its raw list is far longer than
// its distinct degree.
func hubMultigraph(name string, n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(name)
	for i := 0; i < n; i++ {
		b.AddVertex()
	}
	for v := 1; v < n; v++ {
		for k := rng.Intn(3); k >= 0; k-- {
			b.MustAddEdge(0, graph.VertexID(v))
		}
		if v+1 < n {
			b.MustAddEdge(graph.VertexID(v), graph.VertexID(v+1))
		}
	}
	return b.Build()
}

// bruteRankOps is the element-visit count the rank-owned sweep must
// report: each owner with at least one lower-ranked neighbor marks its raw
// list once, and each owned pair scans the lower endpoint's raw list.
func bruteRankOps(g *graph.Graph, sdeg []int64, pairs [][3]int64) int64 {
	lower := func(v, u int64) bool { return sdeg[v] < sdeg[u] || (sdeg[v] == sdeg[u] && v < u) }
	marked := map[int64]bool{}
	var ops int64
	for _, p := range pairs {
		owner, low := p[0], p[1]
		if lower(owner, low) {
			owner, low = low, owner
		}
		if !marked[owner] {
			marked[owner] = true
			ops += int64(len(g.Neighbors(graph.VertexID(owner))))
		}
		ops += int64(len(g.Neighbors(graph.VertexID(low))))
	}
	return ops
}

func TestLocalCountsOracle(t *testing.T) {
	for _, g := range localTestGraphs() {
		sdeg, pairs, tri := bruteLocals(g)

		// Oracle sums for a representative basket of closures.
		var wantEdges, wantWedges, wantTriBase, wantStars, wantTriSum int64
		for _, p := range pairs {
			wantEdges++
			wantWedges += (sdeg[p[0]] - 1) * (sdeg[p[1]] - 1)
			wantTriBase += p[2]
		}
		for v := range sdeg {
			wantStars += sdeg[v] * (sdeg[v] - 1) / 2
			wantTriSum += tri[v]
		}

		terms := LocalTerms{
			Pair: []func(du, dv, c int64) int64{
				func(du, dv, c int64) int64 { return 1 },
				func(du, dv, c int64) int64 { return (du - 1) * (dv - 1) },
				func(du, dv, c int64) int64 { return c },
			},
			Vertex: []func(d, tri int64) int64{
				func(d, tri int64) int64 { return d * (d - 1) / 2 },
				func(d, tri int64) int64 { return tri },
			},
			NeedTri: true,
		}
		for _, cores := range []int{1, 2, 3, 8} {
			pairSums, vertexSums, ops, err := LocalCounts(context.Background(), g, terms, cores)
			if err != nil {
				t.Fatalf("%s cores=%d: %v", g.Name(), cores, err)
			}
			if pairSums[0] != wantEdges || pairSums[1] != wantWedges || pairSums[2] != wantTriBase {
				t.Errorf("%s cores=%d pair sums: got %v, want [%d %d %d]",
					g.Name(), cores, pairSums, wantEdges, wantWedges, wantTriBase)
			}
			if vertexSums[0] != wantStars || vertexSums[1] != wantTriSum {
				t.Errorf("%s cores=%d vertex sums: got %v, want [%d %d]",
					g.Name(), cores, vertexSums, wantStars, wantTriSum)
			}
			if ops <= 0 {
				t.Errorf("%s cores=%d: ops=%d, want positive", g.Name(), cores, ops)
			}
		}
	}
}

// TestLocalCountsDegreeOnly checks the cheap path: no common-neighbor sweep
// when nothing needs triangles.
func TestLocalCountsDegreeOnly(t *testing.T) {
	g := workload.BarabasiAlbert("lc-deg", 100, 3, 1, 44)
	sdeg, pairs, _ := bruteLocals(g)
	var wantEdges, wantStars int64
	for range pairs {
		wantEdges++
	}
	for v := range sdeg {
		wantStars += sdeg[v] * (sdeg[v] - 1) * (sdeg[v] - 2) / 6
	}
	terms := LocalTerms{
		Pair:   []func(du, dv, c int64) int64{func(du, dv, c int64) int64 { return 1 }},
		Vertex: []func(d, tri int64) int64{func(d, tri int64) int64 { return d * (d - 1) * (d - 2) / 6 }},
	}
	pairSums, vertexSums, opsCheap, err := LocalCounts(context.Background(), g, terms, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pairSums[0] != wantEdges || vertexSums[0] != wantStars {
		t.Errorf("got %v %v, want [%d] [%d]", pairSums, vertexSums, wantEdges, wantStars)
	}
	terms.NeedTri = true
	_, _, opsTri, err := LocalCounts(context.Background(), g, terms, 4)
	if err != nil {
		t.Fatal(err)
	}
	if opsCheap >= opsTri {
		t.Errorf("degree-only sweep ops=%d not below tri sweep ops=%d", opsCheap, opsTri)
	}
}

func TestLocalCountsCancellation(t *testing.T) {
	g := workload.BarabasiAlbert("lc-cancel", 2000, 8, 1, 45)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	terms := LocalTerms{
		Pair:    []func(du, dv, c int64) int64{func(du, dv, c int64) int64 { return c }},
		NeedTri: true,
	}
	if _, _, _, err := LocalCounts(ctx, g, terms, 4); err == nil {
		t.Error("cancelled context: expected error")
	}
}

func TestLocalCountsEmptyGraph(t *testing.T) {
	g := graph.NewBuilder("lc-empty").Build()
	terms := LocalTerms{
		Pair:    []func(du, dv, c int64) int64{func(du, dv, c int64) int64 { return 1 }},
		Vertex:  []func(d, tri int64) int64{func(d, tri int64) int64 { return 1 }},
		NeedTri: true,
	}
	pairSums, vertexSums, _, err := LocalCounts(context.Background(), g, terms, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pairSums[0] != 0 || vertexSums[0] != 0 {
		t.Errorf("empty graph sums: %v %v", pairSums, vertexSums)
	}
}

// TestLocalCountsNeedCommon checks the pair-only mode: c(u,v) reaches the
// Pair closures without the per-vertex triangle arrays (Vertex closures
// see tri=0), the pair sums match NeedTri's, and both modes pay exactly
// the rank-owned element visits.
func TestLocalCountsNeedCommon(t *testing.T) {
	for _, g := range localTestGraphs() {
		sdeg, pairs, tri := bruteLocals(g)
		var wantWedges, wantTriBase, wantTriSum int64
		for _, p := range pairs {
			wantWedges += (sdeg[p[0]] - 1) * (sdeg[p[1]] - 1)
			wantTriBase += p[2]
		}
		for v := range tri {
			wantTriSum += tri[v]
		}
		wantOps := bruteRankOps(g, sdeg, pairs) + int64(g.NumVertices())
		for _, needTri := range []bool{false, true} {
			terms := LocalTerms{
				Pair: []func(du, dv, c int64) int64{
					func(du, dv, c int64) int64 { return (du - 1) * (dv - 1) },
					func(du, dv, c int64) int64 { return c },
				},
				Vertex:     []func(d, tri int64) int64{func(d, tri int64) int64 { return tri }},
				NeedCommon: true,
				NeedTri:    needTri,
			}
			want := wantTriSum
			if !needTri {
				want = 0
			}
			for _, cores := range []int{1, 2, 3, 8} {
				pairSums, vertexSums, ops, err := LocalCounts(context.Background(), g, terms, cores)
				if err != nil {
					t.Fatalf("%s NeedTri=%v cores=%d: %v", g.Name(), needTri, cores, err)
				}
				if pairSums[0] != wantWedges || pairSums[1] != wantTriBase || vertexSums[0] != want {
					t.Errorf("%s NeedTri=%v cores=%d: got %v %v, want [%d %d] [%d]",
						g.Name(), needTri, cores, pairSums, vertexSums, wantWedges, wantTriBase, want)
				}
				if ops != wantOps {
					t.Errorf("%s NeedTri=%v cores=%d: ops=%d, want %d (rank-owned visits + vertex pass)",
						g.Name(), needTri, cores, ops, wantOps)
				}
			}
		}
	}
}

// TestLocalCountsCancelMidSweep cancels from inside a Pair closure after a
// fixed number of pairs: the sweep must stop between blocks and report the
// cancellation instead of a partial sum.
func TestLocalCountsCancelMidSweep(t *testing.T) {
	g := workload.BarabasiAlbert("lc-midcancel", 4000, 6, 1, 46)
	for _, cores := range []int{1, 2, 3, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		terms := LocalTerms{
			Pair: []func(du, dv, c int64) int64{func(du, dv, c int64) int64 {
				if calls.Add(1) == 100 {
					cancel()
				}
				return c
			}},
			NeedCommon: true,
		}
		done := make(chan error, 1)
		go func() {
			_, _, _, err := LocalCounts(ctx, g, terms, cores)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("cores=%d: err=%v, want context.Canceled", cores, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("cores=%d: sweep did not return after mid-sweep cancel", cores)
		}
		// Cancellation is honoured between blocks: each core finishes at
		// most the block it holds, far short of the graph's ~24k pairs.
		if n := calls.Load(); n >= int64(g.NumEdges()) {
			t.Errorf("cores=%d: %d pair calls after cancel at 100, want the sweep cut short", cores, n)
		}
		cancel()
	}
}

// BenchmarkLocalCounts times the sweep the k=3 motifs fleet runs (wedge and
// triangle terms: pair terms read c(u,v), no vertex term reads tri(v)) on
// a skewed BA graph with 2 cores (make bench-decomp). ops/op reports the
// element visits, the sweep's deterministic cost.
func BenchmarkLocalCounts(b *testing.B) {
	g := workload.BarabasiAlbert("lc-bench", 20000, 8, 1, 47)
	pats, err := pattern.ConnectedPatterns(3)
	if err != nil {
		b.Fatal(err)
	}
	var terms LocalTerms
	for _, p := range pats {
		dp, err := pattern.Decompose(p)
		if err != nil {
			b.Fatal(err)
		}
		for _, term := range dp.Terms {
			switch {
			case term.Pair():
				terms.Pair = append(terms.Pair, term.EvalPair)
				terms.NeedCommon = terms.NeedCommon || term.NeedsTri()
			default:
				terms.Vertex = append(terms.Vertex, term.EvalVertex)
				terms.NeedTri = terms.NeedTri || term.NeedsTri()
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var ops int64
	for i := 0; i < b.N; i++ {
		if _, _, ops, err = LocalCounts(context.Background(), g, terms, 2); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ops), "ops/op")
}
