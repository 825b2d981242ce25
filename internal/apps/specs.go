// Serializable spec builders for the distributed deployments: the cliques,
// motifs, and FSM kernels re-expressed as registered applications
// (fractal.RegisterApp) that master and fractal-worker processes each
// materialize from a JobSpec. Builders compose against fractal.NewBuildGraph
// — no Context — and must be deterministic: the same spec and graph yield
// the identical workflow and step list on every participant, which is what
// keeps distributed results bit-identical to in-process ones.
//
// The *Dist drivers below submit these specs through Context.RunSpec. They
// run on every context: an in-process context builds and runs each spec
// locally (the differential oracle the distributed tests compare against),
// a WithListenAddr master distributes it to the registered workers.
package apps

import (
	"context"
	"fmt"
	"strconv"

	"fractal"
	"fractal/internal/agg"
	"fractal/internal/graph"
	"fractal/internal/pattern"
	"fractal/internal/sched"
)

// Registered application names.
const (
	AppCliques = "cliques"
	AppMotifs  = "motifs"
	AppFSM     = "fsm"
)

func init() {
	fractal.RegisterApp(AppCliques, cliquesBuilder{})
	fractal.RegisterApp(AppMotifs, motifsBuilder{cache: pattern.NewCodeCache(0)})
	fractal.RegisterApp(AppFSM, fsmBuilder{cache: pattern.NewCodeCache(0)})
}

// specInt parses a required integer argument of a spec.
func specInt(spec fractal.JobSpec, key string) (int, error) {
	s := spec.Arg(key)
	if s == "" {
		return 0, fmt.Errorf("apps: spec %q requires argument %q", spec.App, key)
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("apps: spec %q argument %q: %w", spec.App, key, err)
	}
	return n, nil
}

// cliquesBuilder materializes the k-clique counting kernel (Listing 2 of the
// paper, compiled-plan engine). Args: "k".
type cliquesBuilder struct{}

func (cliquesBuilder) EnvProtos(fractal.JobSpec) (map[string]agg.Store, error) {
	return nil, nil
}

func (cliquesBuilder) Build(spec fractal.JobSpec, g *graph.Graph, _ *agg.Registry) (sched.Job, error) {
	k, err := specInt(spec, "k")
	if err != nil {
		return sched.Job{}, err
	}
	if k < 2 {
		return sched.Job{}, fmt.Errorf("apps: cliques requires k >= 2, got %d", k)
	}
	plan, err := fractal.CompilePlan(pattern.Clique(k))
	if err != nil {
		return sched.Job{}, err
	}
	return fractal.NewBuildGraph(g).PFractoidPlan(plan).Expand(k).CountJob()
}

// CliquesDist counts k-cliques of the graph at graphPath through the spec
// protocol (Context.RunSpec) — the distributed form of Cliques.
func CliquesDist(ctx context.Context, fc *fractal.Context, graphPath string, k int) (int64, *fractal.Result, error) {
	spec := fractal.JobSpec{App: AppCliques, Graph: graphPath,
		Args: map[string]string{"k": strconv.Itoa(k)}}
	res, err := fc.RunSpec(ctx, spec, nil)
	if err != nil {
		return 0, specResult(res), err
	}
	n, err := fractal.CountOf(res.Env)
	return n, specResult(res), err
}

// motifsBuilder materializes one pattern's job of the multi-plan motifs
// engine. Args: "k" and "pattern", an index into the deterministic
// pattern.ConnectedPatterns(k) sequence — one spec per non-isomorphic
// connected k-vertex pattern, mirroring Motifs' per-plan jobs. The builder
// owns a code cache (canonicalization is deterministic; the cache only
// memoizes it per process).
type motifsBuilder struct {
	cache *pattern.CodeCache
}

func (motifsBuilder) EnvProtos(fractal.JobSpec) (map[string]agg.Store, error) {
	return nil, nil
}

// motifsPattern resolves the spec's generated pattern.
func motifsPattern(spec fractal.JobSpec) (k int, p *pattern.Pattern, err error) {
	k, err = specInt(spec, "k")
	if err != nil {
		return 0, nil, err
	}
	idx, err := specInt(spec, "pattern")
	if err != nil {
		return 0, nil, err
	}
	pats, err := pattern.ConnectedPatterns(k)
	if err != nil {
		return 0, nil, err
	}
	if idx < 0 || idx >= len(pats) {
		return 0, nil, fmt.Errorf("apps: motifs pattern index %d out of range (%d patterns for k=%d)", idx, len(pats), k)
	}
	return k, pats[idx], nil
}

func (b motifsBuilder) Build(spec fractal.JobSpec, g *graph.Graph, _ *agg.Registry) (sched.Job, error) {
	k, p, err := motifsPattern(spec)
	if err != nil {
		return sched.Job{}, err
	}
	if vl, el, ok := uniformLabels(g); ok {
		// Uniform-label fast path, as in motifsPlanUniform: the pattern is
		// label-specialized and its class is known a priori, so the
		// aggregation key is a constant — zero per-embedding canonicalization.
		lp := pattern.WithUniformLabels(p, vl, el)
		plan, err := fractal.CompileInducedPlan(lp)
		if err != nil {
			return sched.Job{}, err
		}
		code := b.cache.Canonical(lp).Code
		rep := b.cache.Representative(lp)
		return fractal.Aggregate(fractal.NewBuildGraph(g).PFractoidPlan(plan).Expand(k), "motifs",
			func(*fractal.Subgraph) string { return code },
			func(*fractal.Subgraph) agg.PatternCount { return agg.PatternCount{Pat: rep, Count: 1} },
			agg.ReducePatternCount, nil).Job()
	}
	// General path, as in motifsPlanLabeled: the structure plan is
	// label-blind; embeddings split into labeled classes by canonicalizing
	// the induced labeled pattern.
	plan, err := fractal.CompileInducedPlan(p)
	if err != nil {
		return sched.Job{}, err
	}
	return fractal.Aggregate(fractal.NewBuildGraph(g).PFractoidPlan(plan).Expand(k), "motifs",
		func(e *fractal.Subgraph) string {
			return b.cache.Canonical(pattern.FromEmbedding(e.Graph(), e.Vertices(), nil)).Code
		},
		func(e *fractal.Subgraph) agg.PatternCount {
			induced := pattern.FromEmbedding(e.Graph(), e.Vertices(), nil)
			return agg.PatternCount{Pat: b.cache.Representative(induced), Count: 1}
		},
		agg.ReducePatternCount, nil).Job()
}

// MotifsDist counts k-vertex motifs of the graph at graphPath through the
// spec protocol: one RunSpec per generated pattern, merged exactly as Motifs
// merges its per-plan jobs. k is bounded by pattern.MaxGenVertices (the
// canonical-check fallback enumerates all k-subsets from one process and has
// no spec form).
func MotifsDist(ctx context.Context, fc *fractal.Context, graphPath string, k int) (MotifCounts, *fractal.Result, error) {
	if k > pattern.MaxGenVertices {
		return nil, nil, fmt.Errorf("apps: distributed motifs supports k <= %d, got %d", pattern.MaxGenVertices, k)
	}
	pats, err := pattern.ConnectedPatterns(k)
	if err != nil {
		return nil, nil, err
	}
	counts := MotifCounts{}
	results := make([]*fractal.Result, 0, len(pats))
	for i := range pats {
		spec := fractal.JobSpec{App: AppMotifs, Graph: graphPath,
			Args: map[string]string{"k": strconv.Itoa(k), "pattern": strconv.Itoa(i)}}
		res, err := fc.RunSpec(ctx, spec, nil)
		results = append(results, specResult(res))
		if err != nil {
			return nil, fractal.CombineResults(results...), err
		}
		m, err := agg.Typed[string, agg.PatternCount](res.Env, "motifs")
		if err != nil {
			return nil, fractal.CombineResults(results...), err
		}
		// Distinct structures canonicalize to distinct codes: no cross-job
		// collisions, same as the in-process multi-plan engine.
		m.Range(func(code string, pc agg.PatternCount) bool {
			if pc.Count > 0 {
				counts[code] = pc
			}
			return true
		})
	}
	return counts, fractal.CombineResults(results...), nil
}

// fsmBuilder materializes one level of the frequent subgraph mining loop
// (Listing 3 of the paper). Args: "support" (the MNI threshold) and "level"
// (how many edges the mined patterns have). A level-L job filters by every
// earlier level's support aggregation — environment entries named
// support1..support(L-1), threaded between RunSpec calls by FSMDist and
// shipped to workers over the wire — then expands and aggregates supportL.
type fsmBuilder struct {
	cache *pattern.CodeCache
}

func fsmSupName(level int) string { return fmt.Sprintf("support%d", level) }

func (fsmBuilder) EnvProtos(spec fractal.JobSpec) (map[string]agg.Store, error) {
	level, err := specInt(spec, "level")
	if err != nil {
		return nil, err
	}
	protos := map[string]agg.Store{}
	for l := 1; l < level; l++ {
		protos[fsmSupName(l)] = agg.New[string, *agg.DomainSupport](agg.ReduceDomainSupport)
	}
	return protos, nil
}

func (b fsmBuilder) Build(spec fractal.JobSpec, g *graph.Graph, _ *agg.Registry) (sched.Job, error) {
	level, err := specInt(spec, "level")
	if err != nil {
		return sched.Job{}, err
	}
	support, err := specInt(spec, "support")
	if err != nil {
		return sched.Job{}, err
	}
	if level < 1 || support < 1 {
		return sched.Job{}, fmt.Errorf("apps: fsm requires level >= 1 and support >= 1, got level=%d support=%d", level, support)
	}
	minSupport := int64(support)
	f := fractal.NewBuildGraph(g).EFractoid().Expand(1)
	for l := 1; l < level; l++ {
		f = fractal.FilterAgg(f, fsmSupName(l),
			func(e *fractal.Subgraph, a *agg.Aggregation[string, *agg.DomainSupport]) bool {
				canon, _ := e.Canon(b.cache)
				return a.Contains(canon.Code)
			})
		f = f.Expand(1)
	}
	return fractal.Aggregate(f, fsmSupName(level),
		func(e *fractal.Subgraph) string {
			canon, _ := e.Canon(b.cache)
			return canon.Code
		},
		func(e *fractal.Subgraph) *agg.DomainSupport {
			canon, rep := e.Canon(b.cache)
			return agg.ScratchDomainSupport(rep, minSupport, e.Vertices(), canon.Perm)
		},
		agg.ReduceDomainSupport,
		func(k string, v *agg.DomainSupport) bool { return v.HasEnoughSupport() }).Job()
}

// FSMDist mines frequent subgraphs of the graph at graphPath through the
// spec protocol: one RunSpec per level, each level's environment (the
// accumulated support aggregations) threaded into the next. Unlike FSM it
// never applies the graph-reduction optimization — the reduced graph exists
// only in the master's memory and cannot be named by a spec — so it matches
// FSM with GraphReduction off, which computes the identical frequent set.
func FSMDist(ctx context.Context, fc *fractal.Context, graphPath string, minSupport int64, maxEdges int) (*FSMResult, error) {
	if maxEdges <= 0 {
		maxEdges = 3
	}
	out := &FSMResult{Frequent: map[string]*fractal.DomainSupport{}}
	var env *fractal.Aggregations
	for level := 1; level <= maxEdges; level++ {
		spec := fractal.JobSpec{App: AppFSM, Graph: graphPath,
			Args: map[string]string{
				"support": strconv.FormatInt(minSupport, 10),
				"level":   strconv.Itoa(level),
			}}
		res, err := fc.RunSpec(ctx, spec, env)
		if err != nil {
			return nil, err
		}
		out.Steps = append(out.Steps, res.Steps...)
		out.Last = specResult(res)
		env = res.Env
		lvl, err := agg.Typed[string, *agg.DomainSupport](env, fsmSupName(level))
		if err != nil {
			return nil, err
		}
		record(out, lvl)
		if out.PerLevel[len(out.PerLevel)-1] == 0 {
			break
		}
	}
	return out, nil
}

// specResult adapts a runtime result to the public Result shape (nil-safe).
func specResult(res *sched.Result) *fractal.Result {
	if res == nil {
		return nil
	}
	return &fractal.Result{Aggregations: res.Env, Steps: res.Steps, Wall: res.Wall, Report: res.Report}
}
