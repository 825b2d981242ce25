package pattern

import (
	"math/rand"
	"strings"
	"testing"
)

// paw returns the triangle with one pendant edge (tailed triangle, s=1).
func paw() *Pattern {
	b := NewBuilder(4)
	b.AddEdge(0, 1, NoLabel)
	b.AddEdge(1, 2, NoLabel)
	b.AddEdge(0, 2, NoLabel)
	b.AddEdge(0, 3, NoLabel)
	return b.Build()
}

// cricket returns the triangle with two pendant edges at one vertex.
func cricket() *Pattern {
	b := NewBuilder(5)
	b.AddEdge(0, 1, NoLabel)
	b.AddEdge(1, 2, NoLabel)
	b.AddEdge(0, 2, NoLabel)
	b.AddEdge(0, 3, NoLabel)
	b.AddEdge(0, 4, NoLabel)
	return b.Build()
}

// bull returns the triangle with one pendant at each of two vertices.
func bull() *Pattern {
	b := NewBuilder(5)
	b.AddEdge(0, 1, NoLabel)
	b.AddEdge(1, 2, NoLabel)
	b.AddEdge(0, 2, NoLabel)
	b.AddEdge(0, 3, NoLabel)
	b.AddEdge(1, 4, NoLabel)
	return b.Build()
}

// fork21 returns the double-star with 2 leaves at one center, 1 at the other.
func fork21() *Pattern {
	b := NewBuilder(5)
	b.AddEdge(0, 1, NoLabel)
	b.AddEdge(0, 2, NoLabel)
	b.AddEdge(0, 3, NoLabel)
	b.AddEdge(3, 4, NoLabel)
	return b.Build()
}

// book3 returns B(3): a base edge with three pages.
func book3() *Pattern {
	b := NewBuilder(5)
	b.AddEdge(0, 1, NoLabel)
	for w := 2; w < 5; w++ {
		b.AddEdge(0, w, NoLabel)
		b.AddEdge(1, w, NoLabel)
	}
	return b.Build()
}

// tadpole returns the triangle with a length-2 path tail (refused: the tail
// is not a star of pendants at the apex).
func tadpole() *Pattern {
	b := NewBuilder(5)
	b.AddEdge(0, 1, NoLabel)
	b.AddEdge(1, 2, NoLabel)
	b.AddEdge(0, 2, NoLabel)
	b.AddEdge(0, 3, NoLabel)
	b.AddEdge(3, 4, NoLabel)
	return b.Build()
}

func TestDecomposeRules(t *testing.T) {
	cases := []struct {
		name string
		p    *Pattern
		rule string // "" means Decompose must refuse
	}{
		{"K1", Clique(1), "vertex"},
		{"K2", Clique(2), "edge"},
		{"K3", Clique(3), "triangle"},
		{"P3", Path(3), "star(2)"},
		{"P4", Path(4), "double-star(1,1)"},
		{"star4", Star(4), "star(3)"},
		{"star5", Star(5), "star(4)"},
		{"paw", paw(), "tailed-triangle"},
		{"diamond", ChordalSquare(), "book(2)"},
		{"fork21", fork21(), "double-star(2,1)"},
		{"cricket", cricket(), "cricket"},
		{"book3", book3(), "book(3)"},
		{"bull", bull(), "bull"},
		{"bowtie", Bowtie(), "bowtie"},
		// Refusals: cycles, dense cliques, deep trees, fused shapes.
		{"C4", Cycle(4), ""},
		{"C5", Cycle(5), ""},
		{"K4", Clique(4), ""},
		{"K5", Clique(5), ""},
		{"P5", Path(5), ""},
		{"house", House(), ""},
		{"tadpole", tadpole(), ""},
		{"chordal-house", ChordalHouse(), ""},
	}
	for _, c := range cases {
		dp, err := Decompose(c.p)
		if c.rule == "" {
			if err == nil {
				t.Errorf("%s: expected refusal, got rule %q", c.name, dp.Rule)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if dp.Rule != c.rule {
			t.Errorf("%s: rule %q, want %q", c.name, dp.Rule, c.rule)
		}
		if len(dp.Terms) == 0 || len(dp.Cores) == 0 {
			t.Errorf("%s: degenerate plan: %d terms, %d cores", c.name, len(dp.Terms), len(dp.Cores))
		}
		for _, term := range dp.Terms {
			if term.Core < 0 || term.Core >= len(dp.Cores) {
				t.Errorf("%s: term core index %d out of range [0,%d)", c.name, term.Core, len(dp.Cores))
			}
		}
		for _, core := range dp.Cores {
			if k := core.NumVertices(); k < 1 || k > 3 {
				t.Errorf("%s: core size %d outside K1..K3", c.name, k)
			}
			if !core.Connected() {
				t.Errorf("%s: disconnected core", c.name)
			}
		}
		if dp.EstCost <= 0 {
			t.Errorf("%s: non-positive est cost %g", c.name, dp.EstCost)
		}
	}
}

func TestDecomposeRefusesLabeledAndBrokenPatterns(t *testing.T) {
	// Mixed vertex labels: the sweep is label-blind.
	b := NewBuilder(3)
	b.SetVertexLabel(0, 7)
	b.AddEdge(0, 1, NoLabel)
	b.AddEdge(1, 2, NoLabel)
	b.AddEdge(0, 2, NoLabel)
	if _, err := Decompose(b.Build()); err == nil {
		t.Error("mixed vertex labels: expected error")
	}
	// Mixed edge labels.
	b = NewBuilder(3)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	b.AddEdge(0, 2, 1)
	if _, err := Decompose(b.Build()); err == nil {
		t.Error("mixed edge labels: expected error")
	}
	// Uniformly labeled patterns ARE decomposable (label matching happens
	// at evaluation time against the graph's uniform labels).
	b = NewBuilder(3)
	for v := 0; v < 3; v++ {
		b.SetVertexLabel(v, 4)
	}
	b.AddEdge(0, 1, 9)
	b.AddEdge(1, 2, 9)
	b.AddEdge(0, 2, 9)
	if _, err := Decompose(b.Build()); err != nil {
		t.Errorf("uniformly labeled triangle: %v", err)
	}
	// Disconnected.
	b = NewBuilder(4)
	b.AddEdge(0, 1, NoLabel)
	b.AddEdge(2, 3, NoLabel)
	if _, err := Decompose(b.Build()); err == nil {
		t.Error("disconnected: expected error")
	}
	// Empty.
	if _, err := Decompose(NewBuilder(0).Build()); err == nil {
		t.Error("empty: expected error")
	}
}

func TestDecomposeDeterministic(t *testing.T) {
	for _, p := range []*Pattern{Triangle(), Path(4), ChordalSquare(), Bowtie(), fork21()} {
		a, err := Decompose(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Decompose(p)
		if err != nil {
			t.Fatal(err)
		}
		if a.Explain() != b.Explain() {
			t.Errorf("non-deterministic decomposition for %v", p)
		}
	}
}

func TestBinom(t *testing.T) {
	cases := []struct{ n, k, want int64 }{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 1, 5}, {5, 2, 10}, {6, 3, 20},
		{10, 4, 210}, {52, 5, 2598960}, {3, 5, 0}, {4, -1, 0}, {-1, 0, 0},
	}
	for _, c := range cases {
		if got := Binom(c.n, c.k); got != c.want {
			t.Errorf("Binom(%d,%d)=%d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestSpanningCounts(t *testing.T) {
	pats, err := ConnectedPatterns(3)
	if err != nil {
		t.Fatal(err)
	}
	span := SpanningCounts(pats)
	p3, k3 := -1, -1
	for i, p := range pats {
		switch p.NumEdges() {
		case 2:
			p3 = i
		case 3:
			k3 = i
		}
	}
	if p3 < 0 || k3 < 0 {
		t.Fatalf("k=3 classes missing: %v", pats)
	}
	// A triangle contains 3 spanning paths; diagonal is the identity;
	// nothing denser spans something sparser.
	if span[p3][k3] != 3 {
		t.Errorf("span[P3][K3]=%d, want 3", span[p3][k3])
	}
	if span[p3][p3] != 1 || span[k3][k3] != 1 {
		t.Errorf("diagonal not identity: %d, %d", span[p3][p3], span[k3][k3])
	}
	if span[k3][p3] != 0 {
		t.Errorf("span[K3][P3]=%d, want 0", span[k3][p3])
	}

	pats4, err := ConnectedPatterns(4)
	if err != nil {
		t.Fatal(err)
	}
	span4 := SpanningCounts(pats4)
	find := func(want *Pattern) int {
		code := want.Canonical().Code
		for i, p := range pats4 {
			if p.Canonical().Code == code {
				return i
			}
		}
		t.Fatalf("class %v not generated", want)
		return -1
	}
	p4, c4, k4, diamond := find(Path(4)), find(Cycle(4)), find(Clique(4)), find(ChordalSquare())
	// C4 spans 4 paths (drop any edge); K4 spans 3 cycles and 12 paths.
	if span4[p4][c4] != 4 {
		t.Errorf("span[P4][C4]=%d, want 4", span4[p4][c4])
	}
	if span4[c4][k4] != 3 {
		t.Errorf("span[C4][K4]=%d, want 3", span4[c4][k4])
	}
	if span4[p4][k4] != 12 {
		t.Errorf("span[P4][K4]=%d, want 12", span4[p4][k4])
	}
	if span4[c4][diamond] != 1 {
		t.Errorf("span[C4][diamond]=%d, want 1", span4[c4][diamond])
	}
}

func TestCombineInduced(t *testing.T) {
	pats, err := ConnectedPatterns(3)
	if err != nil {
		t.Fatal(err)
	}
	p3, k3 := -1, -1
	for i, p := range pats {
		switch p.NumEdges() {
		case 2:
			p3 = i
		case 3:
			k3 = i
		}
	}
	// With 5 induced triangles and 7 induced paths, the non-induced path
	// count is 7 + 3·5 = 22; the solve must recover 7.
	induced := make([]int64, len(pats))
	nonInduced := make([]int64, len(pats))
	decomposed := make([]bool, len(pats))
	induced[k3] = 5
	nonInduced[p3] = 22
	decomposed[p3] = true
	if err := CombineInduced(pats, induced, nonInduced, decomposed); err != nil {
		t.Fatal(err)
	}
	if induced[p3] != 7 {
		t.Errorf("induced[P3]=%d, want 7", induced[p3])
	}
	// Impossible inputs (more triangles than the non-induced path count
	// supports) must error, not go negative.
	induced2 := make([]int64, len(pats))
	nonInduced2 := make([]int64, len(pats))
	induced2[k3] = 10
	nonInduced2[p3] = 22
	if err := CombineInduced(pats, induced2, nonInduced2, decomposed); err == nil {
		t.Error("negative solve: expected error")
	}
	// Length mismatches error.
	if err := CombineInduced(pats, induced[:1], nonInduced, decomposed); err == nil {
		t.Error("length mismatch: expected error")
	}
}

func TestDecompEvalErrors(t *testing.T) {
	dp, err := Decompose(Triangle())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dp.Eval([]int64{1, 2}); err == nil {
		t.Error("arity mismatch: expected error")
	}
	if _, err := dp.Eval([]int64{7}); err == nil {
		t.Error("inexact division by 3: expected error")
	}
	if n, err := dp.Eval([]int64{9}); err != nil || n != 3 {
		t.Errorf("Eval([9])=%d,%v, want 3,nil", n, err)
	}
	// A negative total (impossible counts) errors.
	bw, err := Decompose(Bowtie())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bw.Eval([]int64{0, 5}); err == nil {
		t.Error("negative total: expected error")
	}
}

func TestChoose(t *testing.T) {
	// Stars need only the degree pass: decomposition wins by orders of
	// magnitude under the model.
	ch, err := Choose(Star(4))
	if err != nil {
		t.Fatal(err)
	}
	if !ch.UseDecomp || ch.Decomp == nil {
		t.Errorf("star: want decomposition, got %q", ch.Reason)
	}
	if !strings.HasPrefix(ch.Reason, "decomposition:") {
		t.Errorf("star reason: %q", ch.Reason)
	}
	// C4 has no rule: enumeration, with the refusal in the reason.
	ch, err = Choose(Cycle(4))
	if err != nil {
		t.Fatal(err)
	}
	if ch.UseDecomp || ch.Decomp != nil {
		t.Error("C4: decomposition should be unavailable")
	}
	if !strings.HasPrefix(ch.Reason, "enumeration:") {
		t.Errorf("C4 reason: %q", ch.Reason)
	}
	if ch.Plan == nil {
		t.Error("C4: enumeration plan missing")
	}
}

// TestPlanExplainGolden pins the self-describing Plan.Explain format: units
// on the cost estimate and per-level cumulative costs.
func TestPlanExplainGolden(t *testing.T) {
	pl, err := NewPlan(Triangle())
	if err != nil {
		t.Fatal(err)
	}
	want := `plan: 3 levels, edge-matched, 3 restriction pairs, est cost 7.37e+04 partial embeddings (symbolic units)
pattern: Pattern(n=3 labels=[-1 -1 -1] edges=[0-1 0-2 1-2])
  L0: bind u0  domain=V(G)  est 4.1e+03 candidates, cum cost 4.1e+03
  L1: bind u1  adj=[L0] v>L0  est 16 candidates, cum cost 6.96e+04
  L2: bind u2  adj=[L0 L1] v>L0 v>L1  est 0.0625 candidates, cum cost 7.37e+04
`
	if got := pl.Explain(); got != want {
		t.Errorf("Plan.Explain drifted:\n got: %q\nwant: %q", got, want)
	}
}

// TestDecompExplainGolden pins DecompPlan.Explain for a single-term and a
// multi-term (inclusion–exclusion) polynomial.
func TestDecompExplainGolden(t *testing.T) {
	dp, err := Decompose(Triangle())
	if err != nil {
		t.Fatal(err)
	}
	want := `decomp: rule=triangle, 1 terms, degree + common-neighbor sweep, est cost 1.11e+06 ops (modeled element visits)
pattern: Pattern(n=3 labels=[-1 -1 -1] edges=[0-1 0-2 1-2])
  + 1/3 · Σ_pairs C(c,1)  [core K3]
locals: d(v)=distinct-neighbor degree, c(u,v)=distinct common neighbors per adjacent pair, tri(v)=triangles through v
`
	if got := dp.Explain(); got != want {
		t.Errorf("DecompPlan.Explain drifted:\n got: %q\nwant: %q", got, want)
	}

	dp, err = Decompose(fork21())
	if err != nil {
		t.Fatal(err)
	}
	want = `decomp: rule=double-star(2,1), 2 terms, degree + common-neighbor sweep, est cost 1.11e+06 ops (modeled element visits)
pattern: Pattern(n=5 labels=[-1 -1 -1 -1 -1] edges=[0-1 0-2 0-3 3-4])
  + 1 · Σ_pairs⇄ C(c,0)·C(d(u)-1-0,2)·C(d(v)-1-0,1)  [core K2]
  - 1 · Σ_pairs⇄ C(c,1)·C(d(u)-1-1,1)·C(d(v)-1-1,0)  [core K3]
locals: d(v)=distinct-neighbor degree, c(u,v)=distinct common neighbors per adjacent pair, tri(v)=triangles through v
`
	if got := dp.Explain(); got != want {
		t.Errorf("DecompPlan.Explain drifted:\n got: %q\nwant: %q", got, want)
	}
}

// TestDecomposeCoversDocumentedClasses pins the coverage the docs promise:
// all k=3 classes, 4 of 6 at k=4, 6 of 21 at k=5.
func TestDecomposeCoversDocumentedClasses(t *testing.T) {
	want := map[int][2]int{3: {2, 2}, 4: {4, 6}, 5: {6, 21}}
	for k, w := range want {
		pats, err := ConnectedPatterns(k)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for _, p := range pats {
			if _, err := Decompose(p); err == nil {
				got++
			}
		}
		if got != w[0] || len(pats) != w[1] {
			t.Errorf("k=%d: %d of %d classes decomposable, want %d of %d",
				k, got, len(pats), w[0], w[1])
		}
	}
}

// TestDecompPairTermsSymmetric pins the contract the rank-owned local-count
// sweep relies on: it presents each adjacent pair once, from whichever
// endpoint owns it, so every pair term must read (du, dv) symmetrically.
func TestDecompPairTermsSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	checked := 0
	for k := 1; k <= MaxDecompVertices; k++ {
		pats, err := ConnectedPatterns(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pats {
			dp, err := Decompose(p)
			if err != nil {
				continue
			}
			for _, term := range dp.Terms {
				if !term.Pair() {
					continue
				}
				checked++
				for i := 0; i < 200; i++ {
					du, dv := 1+rng.Int63n(40), 1+rng.Int63n(40)
					c := rng.Int63n(min(du, dv))
					if a, b := term.EvalPair(du, dv, c), term.EvalPair(dv, du, c); a != b {
						t.Fatalf("%v term %s: EvalPair(%d,%d,%d)=%d but EvalPair(%d,%d,%d)=%d",
							p, term, du, dv, c, a, dv, du, c, b)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no pair terms emitted for k<=5; the check is vacuous")
	}
}
