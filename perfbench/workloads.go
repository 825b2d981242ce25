package main

import (
	"context"
	"fmt"
	"math/rand"

	"fractal"
	"fractal/internal/apps"
	"fractal/internal/graph"
	gen "fractal/internal/workload"
)

// A workload is one input graph and one kind of request, run as a closed
// loop by a single client: the next request is sent when the previous
// answer is back.
type workload struct {
	name string
	// Workers × cores of the Context under test; the product must not
	// exceed the host's CPUs.
	workers, cores int
	tcp            bool
	// dataset builds the fixed analog graph; the run's seed renumbers it.
	dataset func() *graph.Graph
	// oracle computes the expected answers on the prepared graph.
	oracle func(g *graph.Graph) (answers, error)
	// anyNumbering marks an oracle whose answers are the same for every
	// renumbering of the dataset, so that one computation serves every
	// seed (see prepare).
	anyNumbering bool
	// cycle is the number of distinct requests; the warm-up runs one cycle.
	cycle int
	// request sends request i and checks its answer. It returns the step
	// reports of the call, a description of a wrong answer ("" if right),
	// and the call's error.
	request func(c *client, i, parent int) ([]fractal.StepReport, string, error)
}

// client is the single closed-loop client of a run.
type client struct {
	fc   *fractal.Context
	fg   *fractal.Graph
	want answers
	tr   *tracer // nil in the untraced run
	req  int     // request id of the spans being recorded
}

// fsmSupport and fsmMaxEdges configure the fsm-tcp request.
const (
	fsmSupport  = 38
	fsmMaxEdges = 3
)

// seedQueries are the query-stream requests: SEED q1–q7 (q8 would make one
// request far longer than the rest).
func seedQueries() []*fractal.Pattern { return apps.SEEDQueries()[:7] }

var workloads = []*workload{
	{
		// Leaf-heavy enumeration: 15 of the 21 five-vertex classes run as
		// plan jobs whose leaves flow through the runtime one by one; the
		// other 6 ride one decomposition sweep.
		name: "motifs-k5", workers: 1, cores: 2,
		dataset: func() *graph.Graph { return gen.BarabasiAlbert("ba-1000", 1000, 2, 1, 102) },
		oracle: func(g *graph.Graph) (answers, error) {
			return answers{Motifs: motifsOracle(g, 5)}, nil
		},
		anyNumbering: true,
		cycle:        1,
		request:      motifsRequest(5),
	},
	{
		// Both 3-vertex classes decompose, so a request is one local-count
		// sweep over a CSR far larger than L2: no enumeration, no stealing.
		name: "sweep-k3", workers: 1, cores: 2,
		dataset: func() *graph.Graph { return gen.BarabasiAlbert("ba-100k", 100000, 8, 1, 105) },
		oracle: func(g *graph.Graph) (answers, error) {
			m, err := trianglesAndWedges(g)
			return answers{Motifs: m}, err
		},
		cycle:   1,
		request: motifsRequest(3),
	},
	{
		// Labeled mining over real sockets: every embedding is
		// canonicalized and aggregated, work moves by external steals, and
		// supports ship to the master at each level.
		name: "fsm-tcp", workers: 2, cores: 1, tcp: true,
		dataset: func() *graph.Graph { return gen.Community("mico-ml-half", 30, 50, 16, 1.2, 29, 101) },
		oracle: func(g *graph.Graph) (answers, error) {
			return answers{FSM: fsmOracle(g, fsmSupport, fsmMaxEdges)}, nil
		},
		cycle:   1,
		request: fsmRequest,
	},
	{
		// Many small jobs: per-request fixed cost (compile, dispatch,
		// quiescence polling, collect) is a large share of the latency.
		// The graph is three times the patents-sl analog: on the 9000-vertex
		// original the common ~12 ms request was mostly host wake-up and
		// timer latency, and its median moved by a quarter between runs on
		// a loaded host.
		name: "query-stream", workers: 1, cores: 2,
		dataset: func() *graph.Graph { return gen.BarabasiAlbert("patents-sl-x3", 27000, 2, 1, 102) },
		oracle: func(g *graph.Graph) (answers, error) {
			qs, err := queryOracle(g, seedQueries())
			return answers{Queries: qs}, err
		},
		cycle:   len(seedQueries()),
		request: queryRequest(seedQueries()),
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// fits refuses a configuration with more cores than the host has CPUs: the
// runtime would then time-slice its cores and every time-based metric
// would measure the OS scheduler.
func (w *workload) fits(nproc int) error {
	if w.workers*w.cores > nproc {
		return fmt.Errorf("refusing to run %s: %d workers × %d cores exceeds the host's %d CPUs",
			w.name, w.workers, w.cores, nproc)
	}
	return nil
}

func (w *workload) options() []fractal.Option {
	opts := []fractal.Option{fractal.WithWorkers(w.workers), fractal.WithCores(w.cores)}
	if w.tcp {
		opts = append(opts, fractal.WithTCP())
	}
	return opts
}

// renumber returns a copy of g with its vertices and edges in an order
// drawn from seed. The seed thus changes vertex ids, partitioning, stealing
// order and memory layout, but not the graph's structure, so the work a
// request does, and hence run-to-run spread, does not swing with the
// random hub degrees a freshly generated graph would have.
func renumber(g *graph.Graph, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	order := rng.Perm(n) // new vertex i is old vertex order[i]
	id := make([]graph.VertexID, n)
	b := graph.NewBuilder(g.Name())
	for i, old := range order {
		id[old] = graph.VertexID(i)
		b.AddVertex(g.VertexLabels(graph.VertexID(old))...)
	}
	for _, e := range rng.Perm(g.NumEdges()) {
		edge := g.EdgeByID(graph.EdgeID(e))
		b.MustAddEdge(id[edge.Src], id[edge.Dst], edge.Labels...)
	}
	return b.Build()
}

// transportAttrs are the RPC counts of a call's run report.
func transportAttrs(rep *fractal.RunReport) map[string]float64 {
	if rep == nil {
		return map[string]float64{"rpc_msgs": 0, "rpc_bytes": 0}
	}
	t := rep.Transport.Total()
	return map[string]float64{"rpc_msgs": float64(t.MsgsSent), "rpc_bytes": float64(t.BytesSent)}
}

func motifsRequest(k int) func(c *client, i, parent int) ([]fractal.StepReport, string, error) {
	return func(c *client, i, parent int) ([]fractal.StepReport, string, error) {
		if c.tr != nil {
			if err := replayFleetCompile(c, k, parent); err != nil {
				return nil, "", err
			}
		}
		id := c.tr.begin("apps.Motifs", parent, c.req)
		counts, res, err := apps.Motifs(c.fc, c.fg, k)
		var steps []fractal.StepReport
		var rep *fractal.RunReport
		if res != nil {
			steps, rep = res.Steps, res.Report
		}
		c.tr.end(id, transportAttrs(rep))
		c.tr.steps(id, steps)
		if err != nil {
			return steps, "", err
		}
		return steps, checkMotifs(counts, c.want.Motifs), nil
	}
}

// replayFleetCompile estimates, in the traced run only, the pattern-layer
// work apps.Motifs does before it runs anything: generating the connected
// k-vertex classes, searching each for a decomposition, and compiling each
// class's induced plan. apps.Motifs does not expose these phases, so the
// traced request makes similar public calls itself first. They are not
// the calls apps.Motifs makes (it compiles the uniform-labeled pattern of
// the classes it enumerates only), so a change inside apps.Motifs does not
// show here. The extra time shows in the tracing overhead.
func replayFleetCompile(c *client, k, parent int) error {
	var pats []*fractal.Pattern
	var err error
	c.tr.timed("pattern.ConnectedPatterns", parent, c.req, func() { pats, err = fractal.ConnectedPatterns(k) })
	if err != nil {
		return err
	}
	for _, p := range pats {
		c.tr.timed("fractal.CompileDecomp", parent, c.req, func() { _, _ = fractal.CompileDecomp(p) })
	}
	for _, p := range pats {
		c.tr.timed("fractal.CompileInducedPlan", parent, c.req, func() { _, err = fractal.CompileInducedPlan(p) })
		if err != nil {
			return err
		}
	}
	return nil
}

func fsmRequest(c *client, i, parent int) ([]fractal.StepReport, string, error) {
	id := c.tr.begin("apps.FSM", parent, c.req)
	res, err := apps.FSM(c.fc, c.fg, fsmSupport, apps.FSMOptions{MaxEdges: fsmMaxEdges, GraphReduction: true})
	if err != nil {
		c.tr.end(id, nil)
		return nil, "", err
	}
	// apps.FSM returns the run report of its deepest level only, so the
	// RPC counts cover that level.
	var rep *fractal.RunReport
	if res.Last != nil {
		rep = res.Last.Report
	}
	c.tr.end(id, transportAttrs(rep))
	c.tr.steps(id, res.Steps)
	return res.Steps, checkFSM(res, c.want.FSM), nil
}

func queryRequest(qs []*fractal.Pattern) func(c *client, i, parent int) ([]fractal.StepReport, string, error) {
	return func(c *client, i, parent int) ([]fractal.StepReport, string, error) {
		q := qs[i%len(qs)]
		var plan *fractal.Plan
		var err error
		c.tr.timed("fractal.CompilePlan", parent, c.req, func() { plan, err = fractal.CompilePlan(q) })
		if err != nil {
			return nil, "", err
		}
		id := c.tr.begin("fractal.Fractoid.CountCtx", parent, c.req)
		n, res, err := c.fg.PFractoidPlan(plan).Expand(q.NumVertices()).CountCtx(context.Background())
		var steps []fractal.StepReport
		var rep *fractal.RunReport
		if res != nil {
			steps, rep = res.Steps, res.Report
		}
		c.tr.end(id, transportAttrs(rep))
		c.tr.steps(id, steps)
		if err != nil {
			return steps, "", err
		}
		if want := c.want.Queries[i%len(qs)]; n != want {
			return steps, fmt.Sprintf("q%d: got %d matches, want %d", i%len(qs)+1, n, want), nil
		}
		return steps, "", nil
	}
}
