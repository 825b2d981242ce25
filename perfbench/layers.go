package main

import "time"

// metric is one named number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// callSpans are the spans around the call that answers a request; their
// self time is the time the request spent in the runtime outside any step:
// dispatch, result collection and the application's own code.
var callSpans = map[string]bool{
	"apps.Motifs":               true,
	"apps.FSM":                  true,
	"fractal.Fractoid.CountCtx": true,
}

// perLayer derives the per-layer metrics of a traced run from its spans:
// requests is the number of timed requests, cores the Context's
// workers × cores, fgrBytes the size of the graph file, gcPerRequest the Go
// runtime's GC cycles per request.
// Counts and times are per timed request; ratios are taken over the sums.
func perLayer(spans []span, requests, cores int, fgrBytes int64, gcPerRequest float64) map[string]metric {
	var (
		loads                                 []float64
		gen, choose, compile, outside         time.Duration
		plans                                 float64
		sweep, stepWall                       time.Duration
		sweepOps, ec, subgraphs               float64
		busy, idle, steal, quiesceWait, merge float64
		jobs, steps, rounds, retries          float64
		stealsInt, stealsExt, shipped         float64
		balWork, balWeighted                  float64
		rpcMsgs, rpcBytes                     float64
		peakState                             = map[int]float64{}
	)
	for i := range spans {
		s := &spans[i]
		if s.Name == "graph.LoadGraph" {
			loads = append(loads, ms(s.dur()))
		}
		if s.Request < 1 {
			continue
		}
		a := s.Attrs
		switch s.Name {
		case "pattern.ConnectedPatterns":
			gen += selfTime(spans, s.ID)
		case "fractal.CompileDecomp":
			choose += selfTime(spans, s.ID)
		case "fractal.CompileInducedPlan", "fractal.CompilePlan":
			compile += selfTime(spans, s.ID)
			plans++
		case "step.sweep":
			sweep += s.dur()
			sweepOps += a["ec"]
		case "step":
			stepWall += s.dur()
			ec += a["ec"]
			subgraphs += a["subgraphs"]
			busy += a["busy_ns"]
			idle += a["idle_ns"]
			steal += a["steal_ns"]
			quiesceWait += a["quiesce_wait_ns"]
			merge += a["agg_merge_ns"]
			shipped += a["agg_shipped"]
			jobs += a["job_start"]
			steps++
			rounds += a["rounds"]
			retries += a["retries"]
			stealsInt += a["steals_internal"]
			stealsExt += a["steals_external"]
			balWork += a["balance_work"]
			balWeighted += a["balance_work"] * a["balance_eff"]
			if a["peak_state_bytes"] > peakState[s.Request] {
				peakState[s.Request] = a["peak_state_bytes"]
			}
		}
		if callSpans[s.Name] {
			outside += selfTime(spans, s.ID)
			rpcMsgs += a["rpc_msgs"]
			rpcBytes += a["rpc_bytes"]
		}
	}
	n := float64(max(requests, 1))
	per := func(x float64) float64 { return x / n }
	perMs := func(d time.Duration) float64 { return ms(d) / n }
	nsToMs := func(x float64) float64 { return x / 1e6 / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var peakSum float64
	for _, p := range peakState {
		peakSum += p
	}
	return map[string]metric{
		"graph.load_ms":              {median(loads), "ms"},
		"graph.fgr_mb":               {float64(fgrBytes) / 1e6, "MB"},
		"pattern.gen_ms":             {perMs(gen), "ms"},
		"pattern.choose_ms":          {perMs(choose), "ms"},
		"pattern.compile_ms":         {perMs(compile), "ms"},
		"pattern.plans":              {per(plans), "count"},
		"subgraph.ec":                {per(ec), "count"},
		"subgraph.useful_ratio":      {ratio(subgraphs, ec), "ratio"},
		"subgraph.sweep_ms":          {perMs(sweep), "ms"},
		"subgraph.sweep_ops":         {per(sweepOps), "count"},
		"enumerator.subgraphs":       {per(subgraphs), "count"},
		"enumerator.peak_state_kb":   {per(peakSum) / 1024, "KiB"},
		"sched.busy_ms":              {nsToMs(busy), "ms"},
		"sched.busy_ns_per_subgraph": {ratio(busy, subgraphs), "ns"},
		"sched.utilization":          {ratio(busy, float64(cores)*float64(stepWall)), "ratio"},
		"sched.balance":              {ratio(balWeighted, balWork), "ratio"},
		"sched.jobs":                 {per(jobs), "count"},
		"sched.steps":                {per(steps), "count"},
		"sched.step_ms":              {perMs(stepWall), "ms"},
		"sched.outside_step_ms":      {perMs(outside), "ms"},
		"sched.quiesce_rounds":       {per(rounds), "count"},
		"sched.quiesce_wait_ms":      {nsToMs(quiesceWait), "ms"},
		"sched.idle_ms":              {nsToMs(idle), "ms"},
		"sched.steals_internal":      {per(stealsInt), "count"},
		"sched.steals_external":      {per(stealsExt), "count"},
		"sched.steal_ms":             {nsToMs(steal), "ms"},
		"sched.retries":              {per(retries), "count"},
		"agg.merge_ms":               {nsToMs(merge), "ms"},
		"agg.shipped_kb":             {per(shipped) / 1024, "KiB"},
		"rpc.msgs":                   {per(rpcMsgs), "count"},
		"rpc.kb":                     {per(rpcBytes) / 1024, "KiB"},
		"go.gc_cycles":               {gcPerRequest, "count"},
	}
}
