package subgraph

import (
	"context"
	"sync"
	"sync/atomic"

	"fractal/internal/agg"
	"fractal/internal/graph"
)

// Local-count kernels for the decomposition engine (DESIGN.md §14): one
// parallel pass over the CSR arrays computes, per vertex, the
// distinct-neighbor degree d(v) and triangle count tri(v), and, per distinct
// adjacent pair (u,v), the distinct common-neighbor count c(u,v). The
// polynomial terms of a DecompPlan are folded into running sums *during*
// the sweep, so no per-pair or per-vertex values are ever stored beyond the
// O(|V|) degree, triangle and per-core marker arrays.
//
// The pair sweep is rank-owned. Rank orders vertices by (d(v), id); each
// distinct adjacent pair is handled once, by its higher-ranked endpoint u
// (the owner). The owner stamps its neighbors into a per-core marker array
// once, then scans each lower-ranked neighbor v's list and counts the
// stamped entries: c(u,v) costs d(v), not d(u)+d(v). A whole sweep costs
// Σ_owners d(owner) + Σ_pairs d(lower) element visits instead of the
// Σ_v d(v)² a two-sided merge of every pair pays on power-law graphs —
// hubs mark once and are never scanned on behalf of their lower-ranked
// neighbors.
//
// Multigraph correctness: Neighbors(v) contains one entry per incidence, so
// parallel edges appear as duplicate runs. Every loop below deduplicates
// runs, making all counts distinct-neighbor counts — the simple-graph
// skeleton the decomposition algebra is defined over (and what the plan
// engine's candidate sets enumerate on multigraphs).

// LocalTerms describes one sweep's work: Pair closures are evaluated once
// per distinct adjacent pair with the endpoints' distinct-neighbor degrees
// and (when NeedCommon or NeedTri) their distinct common-neighbor count;
// Vertex closures once per vertex with its degree and (when NeedTri) its
// triangle count.
//
// Pair closures must be symmetric in (du, dv): the sweep presents each pair
// from its owner's side, so which endpoint's degree comes first is the
// kernel's choice, not the caller's.
type LocalTerms struct {
	Pair   []func(du, dv, c int64) int64
	Vertex []func(d, tri int64) int64
	// NeedCommon computes c(u,v) for the Pair closures, without the
	// per-vertex triangle counts.
	NeedCommon bool
	// NeedTri computes c(u,v) and tri(v); it forces the common-neighbor
	// half of the sweep even when no Pair closure is present (Vertex
	// closures reading tri(v) need it).
	NeedTri bool
}

// localBlock is the dynamic scheduling granule of the sweep: cores claim
// vertex blocks off an atomic counter, so degree skew (the reason static
// ranges underutilize on power-law graphs) self-balances.
const localBlock = 256

// LocalCounts runs the sweep over g with the given parallelism and returns
// the per-closure sums (index-aligned with t.Pair and t.Vertex) plus ops,
// the number of adjacency elements visited (the sweep's analog of the
// enumeration engines' extension cost, reported as EC). Per-core partial
// sums reduce through the aggregation pipeline (agg.Int64Sums under
// agg.MergeTree). Cancellation is honoured between blocks.
func LocalCounts(ctx context.Context, g *graph.Graph, t LocalTerms, cores int) (pairSums, vertexSums []int64, ops int64, err error) {
	if cores < 1 {
		cores = 1
	}
	n := g.NumVertices()
	arity := len(t.Pair) + len(t.Vertex)
	needCommon := t.NeedCommon || t.NeedTri
	needPairs := len(t.Pair) > 0 || needCommon

	// Phase 0: distinct-neighbor degrees (read by every later phase, and
	// the first key of the rank that assigns pair owners). A degree fits
	// int32 because the CSR offsets do.
	sdeg := make([]int32, n)
	parallelBlocks(ctx, n, cores, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			nb := g.Neighbors(graph.VertexID(v))
			var d int32
			for i := 0; i < len(nb); i++ {
				if i == 0 || nb[i] != nb[i-1] {
					d++
				}
			}
			sdeg[v] = d
		}
	})
	if err = ctx.Err(); err != nil {
		return nil, nil, 0, err
	}

	// tri[v] accumulates c over the pairs containing v, so it ends at
	// 2·tri(v). Each pair adds to its lower endpoint, which any core may
	// be sweeping, hence the atomics; the owner's share is added once.
	var tri []atomic.Int64
	if t.NeedTri {
		tri = make([]atomic.Int64, n)
	}
	var opsTotal atomic.Int64
	stores := make([]agg.Store, cores)

	// Phase 1: pair sweep. Each core folds pair terms into its own
	// Int64Sums.
	if needPairs {
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < cores; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				sums := agg.NewInt64Sums(arity)
				stores[c] = sums
				// mark[w] == u+1 iff w is a neighbor of owner u. Every
				// vertex owns its pairs on exactly one core, so stamps never
				// repeat within a core's marker and it needs no reset.
				var mark []int32
				if needCommon {
					mark = make([]int32, n)
				}
				var ops int64
				for {
					lo := int(next.Add(localBlock)) - localBlock
					if lo >= n || ctx.Err() != nil {
						break
					}
					hi := lo + localBlock
					if hi > n {
						hi = n
					}
					for u := lo; u < hi; u++ {
						nbu := g.Neighbors(graph.VertexID(u))
						du := sdeg[u]
						stamp := int32(u) + 1
						marked := false
						var triU int64
						for i := 0; i < len(nbu); i++ {
							v := nbu[i]
							if i > 0 && v == nbu[i-1] {
								continue // parallel edge
							}
							dv := sdeg[v]
							if dv > du || (dv == du && int(v) > u) {
								continue // v outranks u and owns the pair
							}
							var cc int64
							if needCommon {
								if !marked {
									for _, w := range nbu {
										mark[w] = stamp
									}
									ops += int64(len(nbu))
									marked = true
								}
								nbv := g.Neighbors(v)
								cc = markedCount(nbv, mark, stamp)
								ops += int64(len(nbv))
								if tri != nil && cc != 0 {
									triU += cc
									tri[v].Add(cc)
								}
							} else {
								ops++
							}
							for k, f := range t.Pair {
								sums.Sums[k] += f(int64(du), int64(dv), cc)
							}
						}
						if triU != 0 {
							tri[u].Add(triU)
						}
					}
				}
				opsTotal.Add(ops)
			}(c)
		}
		wg.Wait()
		if err = ctx.Err(); err != nil {
			return nil, nil, 0, err
		}
	}

	// Phase 2: vertex terms, folded into the same per-core stores.
	if len(t.Vertex) > 0 {
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < cores; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				sums, _ := stores[c].(*agg.Int64Sums)
				if sums == nil {
					sums = agg.NewInt64Sums(arity)
					stores[c] = sums
				}
				var ops int64
				for {
					lo := int(next.Add(localBlock)) - localBlock
					if lo >= n || ctx.Err() != nil {
						break
					}
					hi := lo + localBlock
					if hi > n {
						hi = n
					}
					for v := lo; v < hi; v++ {
						var tv int64
						if tri != nil {
							tv = tri[v].Load() / 2
						}
						for k, f := range t.Vertex {
							sums.Sums[len(t.Pair)+k] += f(int64(sdeg[v]), tv)
						}
					}
					ops += int64(hi - lo)
				}
				opsTotal.Add(ops)
			}(c)
		}
		wg.Wait()
	}
	if err = ctx.Err(); err != nil {
		return nil, nil, 0, err
	}

	merged, err := agg.MergeTree(stores, func() bool { return ctx.Err() != nil })
	if err != nil {
		if ctx.Err() != nil {
			err = ctx.Err()
		}
		return nil, nil, 0, err
	}
	total := make([]int64, arity)
	if merged != nil {
		total = merged.(*agg.Int64Sums).Sums
	}
	return total[:len(t.Pair)], total[len(t.Pair):], opsTotal.Load(), nil
}

// markedCount counts the distinct values of the sorted multiset nb (a
// lower-ranked neighbor's list) that carry the owner's stamp: the pair's
// common neighbors, each counted once regardless of parallel edges.
func markedCount(nb []graph.VertexID, mark []int32, stamp int32) int64 {
	var c int64
	for i, w := range nb {
		if mark[w] == stamp && (i == 0 || w != nb[i-1]) {
			c++
		}
	}
	return c
}

// parallelBlocks runs f over [0,n) split into contiguous ranges, one per
// core, and waits. Used for the uniform-cost phases where dynamic blocks
// buy nothing.
func parallelBlocks(ctx context.Context, n, cores int, f func(lo, hi int)) {
	if ctx.Err() != nil || n == 0 {
		return
	}
	if cores > n {
		cores = n
	}
	var wg sync.WaitGroup
	per := (n + cores - 1) / cores
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
