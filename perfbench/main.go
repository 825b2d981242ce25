// Command perfbench is the repository's benchmark: it runs one workload as
// a closed loop of requests against the fractal system, checks every
// answer against an independent oracle, and prints the end-to-end metrics
// (or, with -trace 1, the per-layer metrics) as the last line of its
// output. See README.md for the workloads and metrics.
//
//	bash perfbench/run.sh --workload motifs-k5 --seed 1 --seconds 15 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"fractal"
	"fractal/internal/graph"
)

const (
	// A run sets the system up between minSetupReps and maxSetupReps
	// times, stopping early once set-ups have taken setupBudget; setup_s
	// is the median. On a small graph a set-up takes about a millisecond,
	// so a run makes all maxSetupReps of them.
	minSetupReps = 11
	maxSetupReps = 201
	setupBudget  = 3 * time.Second
	// minRequests keeps the timed phase going past --seconds on a slow
	// host until the tail rule has samples to work with.
	minRequests = 20
	// workDir holds generated inputs and trace files, inside the checkout.
	workDir = ".bench_build/perfbench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed the input graph is made from")
	seconds := flag.Int("seconds", 15, "length of the timed phase")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	prepDir := flag.String("prep", "", "internal: write the input graph and oracle answers into this directory and exit")
	flag.Parse()

	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	if *prepDir != "" {
		return prepare(w, *seed, *prepDir, workDir)
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}

	f := hostFacts()
	f.Workload, f.Seed, f.Workers, f.Cores = w.name, *seed, w.workers, w.cores
	f.Traced, f.Seconds = *traceFlag == 1, *seconds
	if err := w.fits(f.NProc); err != nil {
		return err
	}

	// Input preparation is not measured: a child process generates the
	// graph, writes it as .fgr and computes the oracle's answers, so none
	// of its memory or CPU shows in this process's counters.
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, fmt.Sprintf("%s-seed%d-", w.name, *seed))
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(*seed, 10), "-prep", dir)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("preparing input: %w", err)
	}
	in, err := readPrepared(dir)
	if err != nil {
		return err
	}
	f.Vertices, f.Edges = in.Vertices, in.Edges
	fgrPath := filepath.Join(dir, "graph.fgr")
	st, err := os.Stat(fgrPath)
	if err != nil {
		return err
	}
	f.FGRBytes = st.Size()

	var tr *tracer
	if f.Traced {
		tr = newTracer()
	}
	c := &client{want: in.Answers, tr: tr}
	setup, err := setUp(w, c, fgrPath)
	if err != nil {
		return err
	}
	defer func() {
		c.fg.Raw().Close()
		c.fc.Close()
	}()

	var fails failures
	c.req = reqWarmup
	for i := 0; i < w.cycle; i++ {
		id := tr.begin("request", 0, c.req)
		steps, wrong, err := w.request(c, i, id)
		tr.end(id, nil)
		fails.add(c.req, steps, wrong, err)
	}

	var lat []float64
	dur := time.Duration(*seconds) * time.Second
	before, err := readUsage()
	if err != nil {
		return err
	}
	start := time.Now()
	for n := 0; time.Since(start) < dur || n < minRequests; n++ {
		c.req = n + 1
		t0 := time.Now()
		id := tr.begin("request", 0, c.req)
		steps, wrong, err := w.request(c, w.cycle+n, id)
		tr.end(id, nil)
		lat = append(lat, ms(time.Since(t0)))
		fails.add(c.req, steps, wrong, err)
	}
	elapsed := time.Since(start)
	after, err := readUsage()
	if err != nil {
		return err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}

	acct := accountPerRequest(before, after, len(lat))
	e2e := endToEnd(setup, lat, elapsed, acct, rss)
	tl, haveTail := tailLatency(lat)
	attempted := len(lat) + w.cycle

	fj, _ := json.Marshal(f)
	fmt.Printf("facts %s\n", fj)
	report := e2e
	if f.Traced {
		report = perLayer(tr.spans, len(lat), w.workers*w.cores, f.FGRBytes, acct.GC)
		fmt.Println("traced end-to-end numbers (tracing overhead = these vs an untraced run):")
		printMetrics(e2e, "  ")
		path := filepath.Join(workDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
		if err := tr.write(path, f); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Printf("spans: %s (%d spans)\n", path, len(tr.spans))
	}
	printMetrics(report, "")
	if haveTail {
		fmt.Printf("request_ms_tail is p%.2f of %d requests (%d beyond it)\n", tl.Percentile, tl.Samples, tailBeyond)
	}
	fmt.Printf("fail_ratio %.6g (%d failure events over %d requests attempted)\n",
		float64(fails.events)/float64(attempted), fails.events, attempted)
	if fails.first != "" {
		fmt.Println("first failure:", fails.first)
	}

	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{fails.requests == 0, attempted, fails.requests, report})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// endToEnd computes the end-to-end metrics of a timed phase: lat holds the
// request latencies in ms, elapsed the phase's length. request_ms_tail is
// left out when the tail rule finds no percentile.
func endToEnd(setup float64, lat []float64, elapsed time.Duration, acct perRequest, rss float64) map[string]metric {
	m := map[string]metric{
		"setup_s":              {setup, "s"},
		"requests_per_s":       {float64(len(lat)) / elapsed.Seconds(), "1/s"},
		"request_ms_p50":       {median(lat), "ms"},
		"cpu_ms_per_request":   {acct.CPUms, "ms"},
		"alloc_mb_per_request": {acct.AllocMB, "MB"},
		"peak_rss_mb":          {rss, "MB"},
	}
	if tl, ok := tailLatency(lat); ok {
		m["request_ms_tail"] = metric{tl.Value, "ms"}
	}
	return m
}

// setUp creates the Context and loads the graph several times (see
// maxSetupReps), keeps the last pair in c for the requests, and returns
// the median set-up seconds.
func setUp(w *workload, c *client, fgrPath string) (float64, error) {
	var times []float64
	var spent time.Duration
	for i := 0; ; i++ {
		t0 := time.Now()
		id := c.tr.begin("setup", 0, reqSetup)
		var fc *fractal.Context
		var err error
		c.tr.timed("fractal.NewContext", id, reqSetup, func() { fc, err = fractal.NewContext(w.options()...) })
		if err != nil {
			return 0, err
		}
		var fg *fractal.Graph
		c.tr.timed("graph.LoadGraph", id, reqSetup, func() { fg, err = fc.LoadGraph(fgrPath) })
		c.tr.end(id, nil)
		if err != nil {
			fc.Close()
			return 0, err
		}
		d := time.Since(t0)
		times = append(times, d.Seconds())
		spent += d
		if i+1 == maxSetupReps || (i+1 >= minSetupReps && spent >= setupBudget) {
			c.fc, c.fg = fc, fg
			return median(times), nil
		}
		fg.Raw().Close()
		fc.Close()
	}
}

// failures counts what fail_ratio counts: errors, cancelled steps, step
// retries and wrong answers.
type failures struct {
	events   int    // failure events
	requests int    // requests with at least one event
	first    string // the first one, for the log
}

func (f *failures) add(req int, steps []fractal.StepReport, wrong string, err error) {
	var events []string
	if err != nil {
		events = append(events, "error: "+err.Error())
	}
	if wrong != "" {
		events = append(events, "wrong answer: "+wrong)
	}
	for _, st := range steps {
		if st.Cancelled {
			events = append(events, fmt.Sprintf("step %d cancelled", st.Index))
		}
		for a := 1; a < st.Attempts; a++ {
			events = append(events, fmt.Sprintf("step %d retried", st.Index))
		}
	}
	if len(events) == 0 {
		return
	}
	f.events += len(events)
	f.requests++
	if f.first == "" {
		f.first = fmt.Sprintf("request %d: %s", req, events[0])
	}
}

func printMetrics(m map[string]metric, indent string) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s%-28s %14.6g %s\n", indent, n, m[n].Value, m[n].Unit)
	}
}

// prepared is what the preparing child hands to the measuring process.
type prepared struct {
	Vertices int     `json:"vertices"`
	Edges    int     `json:"edges"`
	Answers  answers `json:"answers"`
}

// prepare builds the workload's graph for seed, writes it as dir/graph.fgr
// and writes the oracle's answers to dir/oracle.json. A workload whose
// answers do not depend on vertex numbering has its oracle run on the
// dataset graph, once per build of the benchmark: the answers are kept in
// cacheDir ("" keeps nothing) under the hash of the running executable, so
// that any change to the code computes them anew.
func prepare(w *workload, seed int64, dir, cacheDir string) error {
	base := w.dataset()
	g := renumber(base, seed)
	if err := graph.SaveFGR(filepath.Join(dir, "graph.fgr"), g); err != nil {
		return err
	}
	var ans answers
	var err error
	if w.anyNumbering {
		ans, err = cachedOracle(w, base, cacheDir)
	} else {
		ans, err = w.oracle(g)
	}
	if err != nil {
		return err
	}
	b, err := json.Marshal(prepared{Vertices: g.NumVertices(), Edges: g.NumEdges(), Answers: ans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "oracle.json"), b, 0o644)
}

func cachedOracle(w *workload, g *graph.Graph, cacheDir string) (answers, error) {
	if cacheDir == "" {
		return w.oracle(g)
	}
	self, err := os.Executable()
	if err != nil {
		return answers{}, err
	}
	bin, err := os.ReadFile(self)
	if err != nil {
		return answers{}, err
	}
	sum := sha256.Sum256(bin)
	path := filepath.Join(cacheDir, fmt.Sprintf("oracle-%s-%x.json", w.name, sum[:8]))
	var ans answers
	if b, err := os.ReadFile(path); err == nil && json.Unmarshal(b, &ans) == nil {
		return ans, nil
	}
	if ans, err = w.oracle(g); err != nil {
		return ans, err
	}
	b, err := json.Marshal(ans)
	if err != nil {
		return ans, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return ans, err
	}
	return ans, os.Rename(tmp, path)
}

func readPrepared(dir string) (prepared, error) {
	var p prepared
	b, err := os.ReadFile(filepath.Join(dir, "oracle.json"))
	if err != nil {
		return p, err
	}
	if err := json.Unmarshal(b, &p); err != nil {
		return p, fmt.Errorf("reading oracle answers: %w", err)
	}
	if p.Answers.Motifs == nil && p.Answers.FSM == nil && p.Answers.Queries == nil {
		return p, errors.New("oracle produced no answers")
	}
	return p, nil
}
