package core

import (
	"math"
	"strings"
	"testing"

	"fedshare/internal/allocation"
	"fedshare/internal/coalition"
	"fedshare/internal/combin"
	"fedshare/internal/economics"
	"fedshare/internal/stats"
)

// heteroModel builds an n-facility federation drawn from k facility
// templates (so it has exploitable symmetry), under a batch workload that
// keeps every coalition value nontrivial.
func heteroModel(t *testing.T, n, k int) *Model {
	t.Helper()
	wl, err := economics.NewWorkload(economics.DemandClass{
		Type: economics.ExperimentType{
			Name: "batch", MinLocations: 10, MaxLocations: math.Inf(1),
			Resources: 1, HoldingTime: 1, Shape: 1,
		},
		Count: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := make([]Facility, n)
	for i := range fs {
		tpl := i % k
		fs[i] = Facility{
			Name:      "F" + string(rune('A'+tpl)) + "-" + string(rune('0'+i/k%10)),
			Locations: 5 + 3*tpl,
			Resources: 1 + 0.5*float64(tpl),
		}
		fs[i].Name = fsName(i, tpl)
	}
	m, err := NewModel(fs, wl)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func fsName(i, tpl int) string {
	return "F" + strings.Repeat("x", tpl+1) + "-" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}

func TestValueMembersMatchesValue(t *testing.T) {
	m := heteroModel(t, 8, 3)
	members := make([]int, 0, 8)
	for mask := combin.Set(1); mask < 1<<8; mask++ {
		members = members[:0]
		for _, i := range mask.Members() {
			members = append(members, i)
		}
		if got, want := m.ValueMembers(members), m.Value(mask); got != want {
			t.Fatalf("coalition %v: ValueMembers %.12f vs Value %.12f", members, got, want)
		}
	}
	// Member order must not matter.
	if m.ValueMembers([]int{3, 0, 6}) != m.ValueMembers([]int{6, 3, 0}) {
		t.Error("ValueMembers depends on member order")
	}
}

func TestClassStructureDetection(t *testing.T) {
	m := heteroModel(t, 12, 3)
	cs := m.ClassStructure()
	if cs == nil {
		t.Fatal("no structure detected on a templated federation")
	}
	if err := cs.Validate(); err != nil {
		t.Fatal(err)
	}
	if cs.K() != 3 {
		t.Fatalf("detected %d classes, want 3", cs.K())
	}
	if cs.N() != 12 {
		t.Fatalf("structure covers %d players, want 12", cs.N())
	}
	// The collapsed characteristic function must agree with the direct one
	// on every count vector reachable from a member list.
	counts := make([]int, 3)
	members := []int{0, 1, 3, 4, 6} // classes 0,1,0,1,0 under i%3 templating
	for _, p := range members {
		counts[cs.ClassOf[p]]++
	}
	if got, want := cs.Value(counts), m.ValueMembers(members); got != want {
		t.Errorf("collapsed V(%v) = %.12f, direct %.12f", counts, got, want)
	}
}

func TestClassStructureNilForOverlapModels(t *testing.T) {
	m := heteroModel(t, 6, 2)
	m.Overlap = [][]int{{0}, {1}, {2}, {3}, {4}, {5}}
	if m.ClassStructure() != nil {
		t.Error("overlap models must not report symmetry structure")
	}
}

func TestApproxPolicyMatchesExactSmall(t *testing.T) {
	// On a snapshot-eligible model the approx policy's auto dispatch must
	// return the exact kernel shares.
	m := fig4Model(t, 500, true)
	exact := shares(t, m, ShapleyPolicy{})
	approx := shares(t, m, ApproxShapleyPolicy{Samples: 50, Seed: 1})
	wantVec(t, approx, exact, 1e-9, "approx policy on small model")
}

func TestApproxPolicyCollapsesTemplatedFederation(t *testing.T) {
	// 30 facilities from 3 templates: 2^30 is out of kernel range but the
	// class lattice (11^3) is trivially exact. Dispatch must go exact-
	// collapsed, and within-template shares must be identical.
	m := heteroModel(t, 30, 3)
	res, err := ApproxShapleyPolicy{Seed: 1}.Result(m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != coalition.EngineExactCollapsed {
		t.Fatalf("engine %q, want %q", res.Method, coalition.EngineExactCollapsed)
	}
	sum := 0.0
	for _, p := range res.Phi {
		sum += p
	}
	vn := m.GrandValue()
	if math.Abs(sum-vn) > 1e-6*vn {
		t.Errorf("Σφ = %.9f, V(N) = %.9f", sum, vn)
	}
	for p := 3; p < 30; p++ {
		if res.Phi[p] != res.Phi[p%3] {
			t.Errorf("facilities %d and %d share a template but differ", p%3, p)
		}
	}
}

func TestLargeFederationBeyondBitmaskBound(t *testing.T) {
	// 80 pairwise-distinct facilities: NewModel must accept it, GrandValue
	// and shares must work through the member-list tier (no symmetry to
	// collapse, so this is the plain sampler), and the bitmask policies
	// must refuse cleanly instead of silently corrupting.
	m := heteroModel(t, 80, 80)
	vn := m.GrandValue()
	if vn <= 0 {
		t.Fatalf("V(N) = %g, want > 0", vn)
	}
	s, err := ApproxShapleyPolicy{Samples: 160, Seed: 2}.Shares(m)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("normalized shares sum to %.12f", sum)
	}
	for _, p := range []Policy{MonteCarloShapleyPolicy{Samples: 10}, NucleolusPolicy{}, BanzhafPolicy{}, UserWeightedShapleyPolicy{}} {
		if _, err := p.Shares(m); err == nil {
			t.Errorf("policy %s did not refuse a 100-facility model", p.Name())
		}
	}
	if _, err := Analyze(m); err == nil {
		t.Error("Analyze did not refuse a 100-facility model")
	}
	if _, err := m.Table(); err == nil {
		t.Error("Table did not refuse a 100-facility model")
	}
}

func TestShapleyPolicyAutoDispatchesLargeModels(t *testing.T) {
	// The default policy must keep working (via the approximation tier)
	// when the federation outgrows the snapshot bound.
	m := heteroModel(t, 40, 2)
	s := shares(t, m, ShapleyPolicy{})
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %.12f", sum)
	}
	// Two templates: exact collapse applies, so within-template equality
	// is exact.
	for p := 2; p < 40; p++ {
		if s[p] != s[p%2] {
			t.Errorf("facilities %d and %d share a template but differ", p%2, p)
		}
	}
}

func TestApproxPolicyRelativeCITarget(t *testing.T) {
	// A heterogeneous 26-facility federation with no two facilities alike:
	// no symmetry to collapse, so the CI-targeted sampler must run and
	// converge to 1% of V(N).
	wl, err := economics.NewWorkload(economics.DemandClass{
		Type: economics.ExperimentType{
			Name: "batch", MinLocations: 5, MaxLocations: math.Inf(1),
			Resources: 1, HoldingTime: 1, Shape: 1,
		},
		Count: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := make([]Facility, 26)
	for i := range fs {
		fs[i] = Facility{Name: string(rune('A' + i)), Locations: 3 + i, Resources: 1 + float64(i)*0.1}
	}
	m, err := NewModel(fs, wl)
	if err != nil {
		t.Fatal(err)
	}
	p := ApproxShapleyPolicy{CITarget: 0.01, Seed: 3}
	res, err := p.Result(m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != coalition.EngineApprox {
		t.Fatalf("engine %q, want %q", res.Method, coalition.EngineApprox)
	}
	if !res.Converged {
		t.Fatalf("did not converge (%d samples)", res.Samples)
	}
	vn := m.GrandValue()
	for i, ci := range res.CIHalf {
		if ci > 0.01*vn {
			t.Errorf("facility %d: CI half-width %g above 1%% of V(N)=%g", i, ci, vn)
		}
	}
	if _, err := (ApproxShapleyPolicy{CITarget: -1}).Shares(m); err == nil {
		t.Error("negative CI target accepted")
	}
}

// TestClassValueMatchesValueMembers checks the collapsed characteristic
// function, which merges each run of adjacent replicas into one pool
// class, against ValueMembers and against an unmemoized solve of the
// one-class-per-facility pool, bit for bit. Template 1 has template 0's
// effective capacity (2·0.5 = 1) but fewer locations, so the two stay
// apart; template 3 differs from template 2 only in cost, so their
// replicas share a class. The elastic (d < 1) plus strict (d > 1)
// workload runs the greedy engine; the linear batch runs the analytic one.
func TestClassValueMatchesValueMembers(t *testing.T) {
	mixed, err := economics.NewWorkload(
		economics.DemandClass{Type: economics.ExperimentType{
			Name: "elastic", MinLocations: 2, MaxLocations: math.Inf(1),
			Resources: 1, HoldingTime: 1, Shape: 0.7,
		}, Count: 4},
		economics.DemandClass{Type: economics.ExperimentType{
			Name: "strict", MinLocations: 12, MaxLocations: 30,
			Resources: 1, HoldingTime: 1, Shape: 1.4, Strict: true,
		}, Count: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	linear, err := economics.NewWorkload(economics.DemandClass{Type: economics.ExperimentType{
		Name: "batch", MinLocations: 20, MaxLocations: math.Inf(1),
		Resources: 1, HoldingTime: 1, Shape: 1,
	}, Count: 30})
	if err != nil {
		t.Fatal(err)
	}
	templates := []Facility{
		{Locations: 3, Resources: 1},
		{Locations: 1, Resources: 2, Availability: 0.5},
		{Locations: 2, Resources: 2},
		{Locations: 2, Resources: 2, Cost: economics.Cost{Fixed: 1}},
		{Locations: 4, Resources: 3},
		{Locations: 0, Resources: 5},
	}
	rng := stats.NewRand(1209)
	for _, wl := range []*economics.Workload{mixed, linear} {
		fs := make([]Facility, 36)
		for i := range fs {
			fs[i] = templates[i%len(templates)]
			fs[i].Name = fsName(i, i%len(templates))
		}
		m, err := NewModel(fs, wl)
		if err != nil {
			t.Fatal(err)
		}
		m.Mu = 0.8
		cs := m.ClassStructure()
		if cs.K() != len(templates) {
			t.Fatalf("detected %d classes, want %d", cs.K(), len(templates))
		}
		groups := cs.Groups()
		counts := make([]int, cs.K())
		for trial := 0; trial < 400; trial++ {
			var members []int
			var replicas []allocation.Class
			for j, g := range groups {
				counts[j] = rng.Intn(len(g) + 1)
				rng.Shuffle(len(g), func(a, b int) { g[a], g[b] = g[b], g[a] })
				for _, i := range g[:counts[j]] {
					members = append(members, i)
					if f := fs[i]; f.Locations > 0 {
						replicas = append(replicas, allocation.Class{Label: f.Name, Count: f.Locations, Capacity: f.EffectiveCapacity()})
					}
				}
			}
			got := cs.Value(counts)
			if direct := m.ValueMembers(members); got != direct {
				t.Fatalf("%s, counts %v: collapsed %v, ValueMembers %v", wl.Classes[0].Type.Name, counts, got, direct)
			}
			want := m.muFactor() * allocation.Solve(allocation.Pool{Classes: replicas}, m.requests()).Utility
			if got != want {
				t.Fatalf("%s, counts %v: collapsed %v, per-facility solve %v", wl.Classes[0].Type.Name, counts, got, want)
			}
		}
	}
}
