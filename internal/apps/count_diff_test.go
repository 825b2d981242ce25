package apps

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"fractal"
	"fractal/internal/pattern"
	"fractal/internal/workload"
)

// Differential suite for the runtime's single count path: CountCtx (the
// native count primitive, with last-level counting when only the count
// follows the last Expand) must agree with a materialized SubgraphsCtx
// count — the count itself and the step reports' EC and Subgraphs — over
// every extension strategy, and stay exact under worker loss and retry.

// countCases are the fractoids the count path is checked on. The filtered
// cases put a LocalFilter after the last Extend, so they must not take the
// leaf path: were their leaves counted unfiltered, the count would be the
// larger unfiltered one.
func countCases(t *testing.T, g *fractal.Graph) map[string]*fractal.Fractoid {
	t.Helper()
	plan, err := fractal.CompilePlan(fractal.PatternClique(4))
	if err != nil {
		t.Fatal(err)
	}
	induced, err := fractal.CompileInducedPlan(pattern.Cycle(4))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*fractal.Fractoid{
		"plan":             g.PFractoidPlan(plan).Expand(4),
		"induced-plan":     g.PFractoidPlan(induced).Expand(4),
		"vertex-induced":   g.VFractoid().Expand(3),
		"edge-induced":     g.EFractoid().Expand(3),
		"kclist":           g.VFractoidWith(NewKClistEnum()).Expand(4),
		"filter-last":      g.VFractoid().Expand(3).Filter(fractal.CliqueFilter),
		"filter-explore":   g.VFractoid().Expand(1).Filter(fractal.CliqueFilter).Explore(3),
		"single-extension": g.VFractoid().Expand(1),
	}
}

// stepTotals sums EC and Subgraphs over a result's step reports.
func stepTotals(res *fractal.Result) (ec, subgraphs int64) {
	for _, s := range res.Steps {
		ec += s.EC
		subgraphs += s.Subgraphs
	}
	return ec, subgraphs
}

func TestCountMatchesMaterialized(t *testing.T) {
	raw := workload.ErdosRenyi("count-diff", 60, 300, 1, 41)
	ctx := testCtx(t)
	g := ctx.FromGraph(raw)
	for name, f := range countCases(t, g) {
		n, cres, err := f.CountCtx(context.Background())
		if err != nil {
			t.Fatalf("%s: count: %v", name, err)
		}
		var m atomic.Int64
		sres, err := f.SubgraphsCtx(context.Background(), func(*fractal.Subgraph) { m.Add(1) })
		if err != nil {
			t.Fatalf("%s: subgraphs: %v", name, err)
		}
		if n != m.Load() || n == 0 {
			t.Errorf("%s: CountCtx=%d, materialized=%d", name, n, m.Load())
		}
		cec, csub := stepTotals(cres)
		sec, ssub := stepTotals(sres)
		if cec != sec || csub != ssub {
			t.Errorf("%s: count reports EC=%d Subgraphs=%d, materialized EC=%d Subgraphs=%d",
				name, cec, csub, sec, ssub)
		}
		if csub != n {
			t.Errorf("%s: Subgraphs=%d, count=%d", name, csub, n)
		}
	}
	// The filtered case really filters: its unfiltered twin counts more.
	all, _, err := g.VFractoid().Expand(3).Count()
	if err != nil {
		t.Fatal(err)
	}
	cliques, _, err := g.VFractoid().Expand(3).Filter(fractal.CliqueFilter).Count()
	if err != nil {
		t.Fatal(err)
	}
	if cliques >= all {
		t.Errorf("filter rejected nothing (%d of %d): the filtered case does not guard the leaf path", cliques, all)
	}
}

// TestChaosCount severs a worker mid-step under step retries: the count
// must equal the fault-free one, which only holds if the failed attempt's
// partial counts are discarded rather than added.
func TestChaosCount(t *testing.T) {
	raw := workload.ErdosRenyi("chaos-count", 60, 260, 1, 42)
	base := chaosCtx(t, nil)
	want := map[string]int64{}
	for name, f := range countCases(t, base.FromGraph(raw)) {
		n, _, err := f.Count()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want[name] = n
	}
	for seed := 1; seed <= chaosSeeds(t); seed++ {
		rng := rand.New(rand.NewSource(int64(500 + seed)))
		script, label := chaosSchedule(rng, false)
		ctx := chaosCtx(t, script)
		for name, f := range countCases(t, ctx.FromGraph(raw)) {
			got, res, err := f.Count()
			if err != nil {
				t.Fatalf("seed %d (%s) %s: %v", seed, label, name, err)
			}
			if got != want[name] {
				t.Errorf("seed %d (%s) %s: count=%d, want %d", seed, label, name, got, want[name])
			}
			requireLossObserved(t, script, res, fmt.Sprintf("seed %d (%s) %s", seed, label, name))
		}
	}
}
