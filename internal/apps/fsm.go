package apps

import (
	"fmt"

	"fractal"
	"fractal/internal/agg"
	"fractal/internal/graph"
	"fractal/internal/pattern"
)

// FSMResult is the outcome of frequent subgraph mining.
type FSMResult struct {
	// Frequent maps canonical pattern codes to their supports, across all
	// mined sizes.
	Frequent map[string]*fractal.DomainSupport
	// PerLevel[i] is the number of frequent patterns with i+1 edges.
	PerLevel []int
	// Steps accumulates the per-step reports of every executed fractoid.
	Steps []fractal.StepReport
	// Last is the result of the final executed fractoid (the deepest
	// level), carrying its run-level observability report.
	Last *fractal.Result
}

// FSMOptions tunes the FSM kernel.
type FSMOptions struct {
	// MaxEdges bounds the size of mined patterns (the paper's executions
	// are support-bounded; a bound keeps benchmark runs finite when the
	// support threshold is permissive).
	MaxEdges int
	// GraphReduction enables the transparent Section 4.3 optimization:
	// after the bootstrap level, the input graph is reduced to the edges
	// whose single-edge pattern is frequent, since no infrequent edge can
	// participate in a frequent subgraph (anti-monotonicity).
	GraphReduction bool
}

// FSM mines the frequent subgraph patterns of g under the minimum
// image-based support threshold minSupport (Listing 3 of the paper). Each
// iteration derives a new fractoid that filters embeddings by the previous
// iteration's support aggregation, expands by one edge, and re-aggregates:
//
//	bootstrap = graph.efractoid.expand(1).aggregate("support", ...)
//	while new frequent patterns exist:
//	  fsm = fsm.filter("support", contains).expand(1).aggregate("support", ...)
//
// Aggregation names are suffixed with the iteration number so that each
// level's support lives in its own environment entry (the engine reuses —
// never recomputes — environment aggregations, Section 4.1).
func FSM(fc *fractal.Context, g *fractal.Graph, minSupport int64, opts FSMOptions) (*FSMResult, error) {
	if opts.MaxEdges <= 0 {
		opts.MaxEdges = 3
	}
	out := &FSMResult{Frequent: map[string]*fractal.DomainSupport{}}

	supName := func(i int) string { return fmt.Sprintf("support%d", i) }
	aggregateLevel := func(f *fractal.Fractoid, level int) *fractal.Fractoid {
		return fractal.Aggregate(f, supName(level),
			func(e *fractal.Subgraph) string { return fc.PatternOf(e).Code },
			func(e *fractal.Subgraph) *fractal.DomainSupport { return fc.MNISupport(e, minSupport) },
			agg.ReduceDomainSupport,
			func(k string, v *fractal.DomainSupport) bool { return v.HasEnoughSupport() })
	}

	// Bootstrap: frequent single edges.
	res, err := aggregateLevel(g.EFractoid().Expand(1), 1).Run()
	if err != nil {
		return nil, err
	}
	out.Steps = append(out.Steps, res.Steps...)
	out.Last = res
	env := res.Aggregations
	level1, err := agg.Typed[string, *agg.DomainSupport](env, supName(1))
	if err != nil {
		return nil, err
	}
	record(out, level1)

	if opts.GraphReduction && level1.Len() > 0 {
		g = reduceToFrequentEdges(fc, g, level1)
	}

	for level := 2; level <= opts.MaxEdges && out.PerLevel[len(out.PerLevel)-1] > 0; level++ {
		// From-scratch pipeline: expand, filter by every earlier level's
		// support, expand, ..., aggregate this level.
		f := g.EFractoid().WithAggregations(env).Expand(1)
		for l := 1; l < level; l++ {
			name := supName(l)
			f = fractal.FilterAgg(f, name,
				func(e *fractal.Subgraph, a *agg.Aggregation[string, *agg.DomainSupport]) bool {
					return a.Contains(fc.PatternOf(e).Code)
				})
			f = f.Expand(1)
		}
		f = aggregateLevel(f, level)
		res, err := f.Run()
		if err != nil {
			return nil, err
		}
		out.Steps = append(out.Steps, res.Steps...)
		out.Last = res
		env = res.Aggregations
		lvl, err := agg.Typed[string, *agg.DomainSupport](env, supName(level))
		if err != nil {
			return nil, err
		}
		record(out, lvl)
	}
	return out, nil
}

func record(out *FSMResult, lvl *agg.Aggregation[string, *agg.DomainSupport]) {
	n := 0
	lvl.Range(func(k string, v *agg.DomainSupport) bool {
		out.Frequent[k] = v
		n++
		return true
	})
	out.PerLevel = append(out.PerLevel, n)
}

// reduceToFrequentEdges applies the transparent FSM graph reduction: keep
// only edges whose single-edge pattern is frequent, then drop isolated
// vertices. By anti-monotonicity of the MNI support, no dropped edge can
// participate in any frequent subgraph.
func reduceToFrequentEdges(fc *fractal.Context, g *fractal.Graph,
	level1 *agg.Aggregation[string, *agg.DomainSupport]) *fractal.Graph {
	// A single-edge pattern is fixed by its (source label, destination
	// label, edge label) triple, so each distinct triple is canonicalized
	// once rather than once per edge.
	frequent := map[[3]graph.Label]bool{}
	reduced := g.EFilter(func(id graph.EdgeID, gr *graph.Graph) bool {
		src, dst := gr.EdgeEndpoints(id)
		key := [3]graph.Label{gr.VertexLabel(src), gr.VertexLabel(dst), gr.EdgeLabel(id)}
		keep, ok := frequent[key]
		if !ok {
			keep = level1.Contains(edgePatternCode(fc, gr, id))
			frequent[key] = keep
		}
		return keep
	})
	return reduced.VFilter(func(v graph.VertexID, gr *graph.Graph) bool {
		return gr.Degree(v) > 0
	})
}

// edgePatternCode returns the canonical code of the single-edge pattern of
// edge id, matching the codes produced by the bootstrap aggregation.
func edgePatternCode(fc *fractal.Context, g *graph.Graph, id graph.EdgeID) string {
	e := g.EdgeByID(id)
	p := pattern.FromEmbedding(g, []graph.VertexID{e.Src, e.Dst}, []graph.EdgeID{id})
	return fc.PatternCanon(p).Code
}
