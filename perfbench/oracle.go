package main

import (
	"encoding/hex"
	"fmt"
	"sort"

	"fractal"
	"fractal/internal/apps"
	"fractal/internal/baselines/singlethread"
	"fractal/internal/graph"
	"fractal/internal/pattern"
)

// answers are the expected outputs of one workload's requests, computed by
// an engine other than the one the benchmark times, before the timed phase.
type answers struct {
	// Motifs maps each motif class's canonical code, in hex, to its
	// induced count.
	Motifs map[string]int64 `json:"motifs,omitempty"`
	// FSM maps each frequent pattern's canonical code, in hex, to its MNI
	// support.
	FSM map[string]int64 `json:"fsm,omitempty"`
	// Queries holds the match count of each query, in request order.
	Queries []int64 `json:"queries,omitempty"`
}

// motifsOracle counts the motif classes of g with the single-threaded
// ESU baseline. It keys classes by canonical code, as apps.Motifs does on
// a uniform-label graph.
func motifsOracle(g *graph.Graph, k int) map[string]int64 {
	counts, _ := singlethread.Motifs(g, k)
	return hexKeys(counts)
}

// trianglesAndWedges returns the k=3 motif counts from the single-threaded
// triangle counter and the degree sequence: the triangle class has T
// members, and the path class every centred pair of neighbours, sum of
// C(d,2), less the 3 such pairs each triangle closes. g must carry uniform
// labels, which the class codes carry too.
func trianglesAndWedges(g *graph.Graph) (map[string]int64, error) {
	vl, el, ok := g.UniformLabels()
	if !ok {
		return nil, fmt.Errorf("graph %s mixes labels", g.Name())
	}
	tri := singlethread.Triangles(g).Count
	var pairs int64
	for v := 0; v < g.NumVertices(); v++ {
		d := int64(distinctDegree(g, graph.VertexID(v)))
		pairs += d * (d - 1) / 2
	}
	code := func(p *pattern.Pattern) string { return pattern.WithUniformLabels(p, vl, el).Canonical().Code }
	out := map[string]int64{}
	if tri > 0 {
		out[code(pattern.Clique(3))] = tri
	}
	if pairs-3*tri > 0 {
		out[code(pattern.Path(3))] = pairs - 3*tri
	}
	return hexKeys(out), nil
}

func distinctDegree(g *graph.Graph, v graph.VertexID) int {
	d := 0
	nb := g.Neighbors(v)
	for i, u := range nb {
		if u != v && (i == 0 || nb[i-1] != u) {
			d++
		}
	}
	return d
}

// hexKeys re-keys counts by the hex form of each canonical code: codes
// are binary and JSON strings are not.
func hexKeys(counts map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(counts))
	for code, n := range counts {
		out[hex.EncodeToString([]byte(code))] = n
	}
	return out
}

// fsmOracle mines g with the single-threaded FSM baseline.
func fsmOracle(g *graph.Graph, support int64, maxEdges int) map[string]int64 {
	freq, _ := singlethread.FSM(g, support, maxEdges)
	sup := make(map[string]int64, len(freq))
	for code, ds := range freq {
		sup[code] = ds.Support()
	}
	return hexKeys(sup)
}

// queryOracle counts each query with the single-threaded matcher.
func queryOracle(g *graph.Graph, qs []*fractal.Pattern) ([]int64, error) {
	out := make([]int64, len(qs))
	for i, q := range qs {
		r, err := singlethread.Query(g, q)
		if err != nil {
			return nil, fmt.Errorf("oracle q%d: %w", i+1, err)
		}
		out[i] = r.Count
	}
	return out, nil
}

// checkMotifs compares a motifs answer with the oracle's class counts and
// describes the first difference ("" when they agree).
func checkMotifs(got apps.MotifCounts, want map[string]int64) string {
	byClass := map[string]int64{}
	for code, pc := range got {
		if pc.Count != 0 {
			byClass[code] = pc.Count
		}
	}
	return diffCounts("motif class", hexKeys(byClass), want)
}

// checkFSM compares an FSM answer with the oracle's frequent patterns.
func checkFSM(got *apps.FSMResult, want map[string]int64) string {
	sup := make(map[string]int64, len(got.Frequent))
	for code, ds := range got.Frequent {
		sup[code] = ds.Support()
	}
	return diffCounts("frequent pattern", hexKeys(sup), want)
}

func diffCounts(what string, got, want map[string]int64) string {
	keys := make([]string, 0, len(got)+len(want))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, gok := got[k]
		w, wok := want[k]
		if g != w || gok != wok {
			return fmt.Sprintf("%s %q: got %d (present %v), want %d (present %v)", what, k, g, gok, w, wok)
		}
	}
	return ""
}
