package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"fractal"
)

// Request ids of spans that belong to no timed request.
const (
	reqSetup  = -1 // NewContext + LoadGraph before the first request
	reqWarmup = 0  // untimed requests that fill caches; timed ones count from 1
)

// span is one interval the benchmark timed around a call into the system,
// or a per-step record taken from the Result the call returned.
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"` // 0: no parent
	Request int                `json:"request"`
	Name    string             `json:"name"`
	Start   time.Duration      `json:"start_ns"` // since the tracer was made
	End     time.Duration      `json:"end_ns"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// tracer keeps the spans of one run in memory; they are written out when
// the run ends. A nil *tracer records nothing, which is the untraced run.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, request int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Request: request, Name: name,
		Start: time.Since(t.origin),
	})
	return len(t.spans)
}

// end closes span id and attaches attrs to it.
func (t *tracer) end(id int, attrs map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End = time.Since(t.origin)
	s.Attrs = attrs
}

// timed runs fn inside a span named name under parent.
func (t *tracer) timed(name string, parent, request int, fn func()) {
	id := t.begin(name, parent, request)
	fn()
	t.end(id, nil)
}

// steps records one child span per step report under parent. A StepReport
// carries a duration but no start time, and the steps of one call run one
// after another, so the records are laid back to back from the parent's
// start: their union then covers exactly the sum of step walls.
func (t *tracer) steps(parent int, steps []fractal.StepReport) {
	if t == nil || parent == 0 {
		return
	}
	p := t.spans[parent-1]
	at := p.Start
	for _, st := range steps {
		name := "step"
		if st.Workflow == sweepWorkflow {
			name = "step.sweep"
		}
		t.spans = append(t.spans, span{
			ID: len(t.spans) + 1, Parent: parent, Request: p.Request, Name: name,
			Start: at, End: at + st.Wall, Attrs: stepAttrs(st),
		})
		at += st.Wall
	}
}

// sweepWorkflow is the workflow string of the synthetic step report a
// decomposition sweep (Graph.EvalDecomps) returns.
const sweepWorkflow = "D"

// stepAttrs are the counts a StepReport carries, by per-layer name stem.
func stepAttrs(st fractal.StepReport) map[string]float64 {
	a := map[string]float64{
		"ec":               float64(st.EC),
		"subgraphs":        float64(st.Subgraphs),
		"busy_ns":          float64(st.Metrics.BusyTimeNs),
		"idle_ns":          float64(st.Metrics.IdleTimeNs),
		"steal_ns":         float64(st.Metrics.StealTimeNs),
		"steals_internal":  float64(st.StealsInternal),
		"steals_external":  float64(st.StealsExternal),
		"peak_state_bytes": float64(st.PeakStateBytes),
		"agg_merge_ns":     float64(st.AggMergeTime),
		"agg_shipped":      float64(st.AggShippedBytes),
		"rounds":           float64(st.RoundsTotal),
		"balance_work":     float64(st.Balance.Total),
		"balance_eff":      st.Balance.Efficiency,
	}
	var wait time.Duration
	for _, r := range st.Rounds {
		wait += r.Wait
	}
	a["quiesce_wait_ns"] = float64(wait)
	if st.Index == 0 {
		a["job_start"] = 1
	}
	if st.Attempts > 1 {
		a["retries"] = float64(st.Attempts - 1)
	}
	return a
}

// selfTime is span id's duration minus the part of its interval that its
// child spans cover; overlapping children count once.
func selfTime(spans []span, id int) time.Duration {
	p := spans[id-1]
	type iv struct{ a, b time.Duration }
	var kids []iv
	for _, s := range spans {
		if s.Parent != id {
			continue
		}
		a, b := max(s.Start, p.Start), min(s.End, p.End)
		if b > a {
			kids = append(kids, iv{a, b})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].a < kids[j].a })
	var covered, reach time.Duration
	reach = p.Start
	for _, k := range kids {
		if k.a < reach {
			k.a = reach
		}
		if k.b > k.a {
			covered += k.b - k.a
			reach = k.b
		}
	}
	return p.dur() - covered
}

// write saves the spans and the run's facts as JSON.
func (t *tracer) write(path string, f facts) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(struct {
		Facts facts  `json:"facts"`
		Spans []span `json:"spans"`
	}{f, t.spans}); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
