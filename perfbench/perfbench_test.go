package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"
	"time"

	"fractal"
	"fractal/internal/graph"
	gen "fractal/internal/workload"
)

func TestTailLatency(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the rule must sort
		}
		return xs
	}
	for _, n := range []int{0, 1, 10} {
		if tl, ok := tailLatency(seq(n)); ok {
			t.Errorf("n=%d: got tail %+v, want none (no percentile has %d samples beyond it)", n, tl, tailBeyond)
		}
	}
	for _, c := range []struct {
		n    int
		want tail
	}{
		{11, tail{Value: 1, Percentile: 100.0 / 11, Samples: 11}},
		{20, tail{Value: 10, Percentile: 50, Samples: 20}},
		{100, tail{Value: 90, Percentile: 90, Samples: 100}},
		{1000, tail{Value: 990, Percentile: 99, Samples: 1000}},
	} {
		tl, ok := tailLatency(seq(c.n))
		if !ok || tl != c.want {
			t.Errorf("n=%d: got %+v ok=%v, want %+v", c.n, tl, ok, c.want)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > tl.Value {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", c.n, beyond, tailBeyond)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{5, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestAccountPerRequest(t *testing.T) {
	before := usage{cpu: 2 * time.Second, alloc: 1e6, gcCycles: 3}
	after := usage{cpu: 2*time.Second + 400*time.Millisecond, alloc: 51e6, gcCycles: 13}
	got := accountPerRequest(before, after, 10)
	want := perRequest{CPUms: 40, AllocMB: 5, GC: 1}
	if got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
	if got := accountPerRequest(before, after, 0); got != (perRequest{}) {
		t.Errorf("zero requests: got %+v, want zeros", got)
	}
}

var sink [][]byte

// TestUsageCountsThisProcess checks the live counters: allocating a known
// number of bytes per "request" and burning CPU must show in the deltas.
func TestUsageCountsThisProcess(t *testing.T) {
	before, err := readUsage()
	if err != nil {
		t.Fatal(err)
	}
	const requests, perReq = 8, 1 << 20
	for i := 0; i < requests; i++ {
		sink = append(sink, make([]byte, perReq))
	}
	for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); {
	}
	after, err := readUsage()
	if err != nil {
		t.Fatal(err)
	}
	sink = nil
	acct := accountPerRequest(before, after, requests)
	if acct.AllocMB < perReq/1e6 {
		t.Errorf("alloc per request %.3f MB, want at least %.3f", acct.AllocMB, float64(perReq)/1e6)
	}
	if acct.CPUms < 1 {
		t.Errorf("CPU per request %.3f ms after a 50 ms busy loop over %d requests", acct.CPUms, requests)
	}
	if rss, err := peakRSSMB(); err != nil || rss <= 0 {
		t.Errorf("peak RSS %v MB, err %v", rss, err)
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Start: 20 * ms, End: 50 * ms},   // overlaps 2: [10,50) covered once
		{ID: 4, Parent: 1, Start: 90 * ms, End: 120 * ms},  // only [90,100) inside the parent
		{ID: 5, Parent: 2, Start: 12 * ms, End: 14 * ms},   // grandchild: not the parent's child
		{ID: 6, Parent: 0, Start: 60 * ms, End: 70 * ms},   // unrelated
		{ID: 7, Parent: 1, Start: 200 * ms, End: 210 * ms}, // outside the parent
	}
	if got, want := selfTime(spans, 1), 50*ms; got != want {
		t.Errorf("self time of parent = %v, want %v", got, want)
	}
	if got, want := selfTime(spans, 2), 18*ms; got != want {
		t.Errorf("self time of child = %v, want %v", got, want)
	}
	if got, want := selfTime(spans, 6), 10*ms; got != want {
		t.Errorf("self time of a leaf = %v, want %v", got, want)
	}
}

// TestStepRecordsAndPerLayer checks that step reports become back-to-back
// child records, so the call's self time is its duration less the step
// walls, and that per-layer metrics divide by the timed requests only.
func TestStepRecordsAndPerLayer(t *testing.T) {
	tr := newTracer()
	for req := reqWarmup; req <= 2; req++ {
		top := tr.begin("request", 0, req)
		call := tr.begin("fractal.Fractoid.CountCtx", top, req)
		tr.end(call, map[string]float64{"rpc_msgs": 6, "rpc_bytes": 2048})
		s := &tr.spans[call-1]
		s.Start, s.End = 0, 50*time.Millisecond
		tr.steps(call, []fractal.StepReport{
			{Index: 0, Workflow: "EEC", Wall: 10 * time.Millisecond, EC: 100, Subgraphs: 25, RoundsTotal: 3},
			{Index: 0, Workflow: sweepWorkflow, Wall: 15 * time.Millisecond, EC: 7},
		})
		tr.end(top, nil)
	}
	if got, want := selfTime(tr.spans, 2), 25*time.Millisecond; got != want {
		t.Fatalf("call self time %v, want %v", got, want)
	}
	m := perLayer(tr.spans, 2, 2, 3e6, 0.5)
	for name, want := range map[string]float64{
		"sched.outside_step_ms": 25,
		"sched.step_ms":         10,
		"subgraph.sweep_ms":     15,
		"subgraph.sweep_ops":    7,
		"subgraph.ec":           100,
		"subgraph.useful_ratio": 0.25,
		"enumerator.subgraphs":  25,
		"sched.jobs":            1,
		"sched.steps":           1,
		"sched.quiesce_rounds":  3,
		"rpc.msgs":              6,
		"rpc.kb":                2,
		"go.gc_cycles":          0.5,
		"graph.fgr_mb":          3,
	} {
		if got := m[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if len(m) != 32 {
		t.Errorf("%d per-layer metrics, want 32", len(m))
	}
}

// TestTrianglesAndWedgesAgreeWithESU checks the sweep-k3 oracle, a degree
// and triangle formula, against the ESU baseline the motifs-k5 oracle uses,
// including the class codes it keys its counts by.
func TestTrianglesAndWedgesAgreeWithESU(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.ErdosRenyi("er", 16, 40, 1, 7),
		gen.BarabasiAlbert("ba", 18, 2, 1, 8),
		gen.BarabasiAlbert("ba3", 14, 3, 1, 9),
	} {
		got, err := trianglesAndWedges(g)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffCounts("class", got, motifsOracle(g, 3)); d != "" {
			t.Errorf("%s: %s", g.Name(), d)
		}
	}
	if _, err := trianglesAndWedges(gen.Community("c", 4, 10, 6, 0.5, 5, 3)); err == nil {
		t.Error("labeled graph accepted")
	}
}

func TestRenumberKeepsStructure(t *testing.T) {
	g := gen.Community("c", 4, 10, 6, 0.5, 5, 3)
	r := renumber(g, 42)
	if r.NumVertices() != g.NumVertices() || r.NumEdges() != g.NumEdges() {
		t.Fatalf("renumbered graph has %d/%d vertices/edges, want %d/%d",
			r.NumVertices(), r.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	if d := diffCounts("class", motifsOracle(r, 4), motifsOracle(g, 4)); d != "" {
		t.Errorf("motif counts changed: %s", d)
	}
	labelDeg := func(g *graph.Graph) map[[2]int]int {
		out := map[[2]int]int{}
		for v := 0; v < g.NumVertices(); v++ {
			out[[2]int{int(g.VertexLabel(graph.VertexID(v))), g.Degree(graph.VertexID(v))}]++
		}
		return out
	}
	a, b := labelDeg(g), labelDeg(r)
	for key, n := range a {
		if b[key] != n {
			t.Errorf("(label, degree) %v: %d vertices after renumbering, want %d", key, b[key], n)
		}
	}
	same := renumber(g, 42)
	for v := 0; v < r.NumVertices(); v++ {
		if r.Degree(graph.VertexID(v)) != same.Degree(graph.VertexID(v)) {
			t.Fatal("the same seed gave a different graph")
		}
	}
}

func TestDiffCounts(t *testing.T) {
	want := map[string]int64{"a": 1, "b": 2}
	if d := diffCounts("x", map[string]int64{"b": 2, "a": 1}, want); d != "" {
		t.Errorf("equal maps reported %q", d)
	}
	for _, got := range []map[string]int64{{"a": 1}, {"a": 1, "b": 3}, {"a": 1, "b": 2, "c": 0}} {
		if diffCounts("x", got, want) == "" {
			t.Errorf("%v vs %v: no difference reported", got, want)
		}
	}
}

func TestFitsRefusesOversubscription(t *testing.T) {
	w := &workload{name: "w", workers: 2, cores: 2}
	if err := w.fits(4); err != nil {
		t.Errorf("4 cores on 4 CPUs refused: %v", err)
	}
	if err := w.fits(3); err == nil {
		t.Error("4 cores on 3 CPUs accepted")
	}
}

// TestWorkloadsAnswerCorrectly prepares each workload's input and checks
// one request against the oracle, through the same code a run uses.
func TestWorkloadsAnswerCorrectly(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every workload's input")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if err := w.fits(nproc()); err != nil {
				t.Skip(err)
			}
			dir := t.TempDir()
			seed := rand.Int63n(1000) + 1
			if err := prepare(w, seed, dir, ""); err != nil {
				t.Fatal(err)
			}
			in, err := readPrepared(dir)
			if err != nil {
				t.Fatal(err)
			}
			c := &client{want: in.Answers, tr: newTracer()}
			if _, err := setUp(w, c, dir+"/graph.fgr"); err != nil {
				t.Fatal(err)
			}
			defer func() {
				c.fg.Raw().Close()
				c.fc.Close()
			}()
			for i := 0; i < w.cycle; i++ {
				c.req = i + 1
				id := c.tr.begin("request", 0, c.req)
				steps, wrong, err := w.request(c, i, id)
				c.tr.end(id, nil)
				var f failures
				f.add(i, steps, wrong, err)
				if f.events != 0 {
					t.Fatalf("seed %d: %s", seed, f.first)
				}
			}
			m := perLayer(c.tr.spans, w.cycle, w.workers*w.cores, 1, 0)
			if m["graph.load_ms"].Value <= 0 || m["sched.steps"].Value+m["subgraph.sweep_ops"].Value <= 0 {
				t.Errorf("traced request recorded no work: %+v", m)
			}
		})
	}
}

func nproc() int { return hostFacts().NProc }

// TestMetricsMatchBenchmarkJSON checks that a run prints exactly the
// metrics BENCHMARK.json declares, with the declared units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	lat := make([]float64, minRequests)
	for i := range lat {
		lat[i] = float64(i + 1)
	}
	for _, c := range []struct {
		what string
		got  map[string]metric
		want []struct{ Name, Unit string }
	}{
		{"end_to_end", endToEnd(0.1, lat, time.Second, perRequest{1, 1, 1}, 10), decl.EndToEnd},
		{"per_layer", perLayer(nil, 1, 2, 1, 0), decl.PerLayer},
	} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: run prints %d metrics, BENCHMARK.json declares %d", c.what, len(c.got), len(c.want))
		}
		for _, d := range c.want {
			if m, ok := c.got[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: %s declared in %s, printed as %+v (present %v)", c.what, d.Name, d.Unit, m, ok)
			}
		}
	}
}
