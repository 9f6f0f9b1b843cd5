package coalition

import (
	"math"
	"strings"
	"sync"
	"testing"

	"fedshare/internal/combin"
)

func setOf(members []int) combin.Set {
	var s combin.Set
	for _, p := range members {
		s = s.With(p)
	}
	return s
}

// testClassStructure builds a 3-class, 6-player game with a nonlinear
// class-level characteristic function, plus the equivalent dense Table so
// the collapsed engines can be cross-checked against the lattice kernel.
func testClassStructure(t *testing.T) (*ClassStructure, *Table) {
	t.Helper()
	value := func(counts []int) float64 {
		lin := 2*float64(counts[0]) + 1.5*float64(counts[1]) + 4*float64(counts[2])
		if lin == 0 {
			return 0
		}
		return math.Pow(lin, 0.8) + 0.3*float64(counts[0]*counts[2])
	}
	cs := &ClassStructure{
		Mult:    []int{2, 3, 1},
		ClassOf: []int{0, 0, 1, 1, 1, 2},
		Value:   value,
	}
	n := cs.N()
	values := make([]float64, 1<<uint(n))
	counts := make([]int, cs.K())
	for m := range values {
		for j := range counts {
			counts[j] = 0
		}
		for p := 0; p < n; p++ {
			if m&(1<<uint(p)) != 0 {
				counts[cs.ClassOf[p]]++
			}
		}
		values[m] = value(counts)
	}
	tab, err := NewTable(n, values)
	if err != nil {
		t.Fatal(err)
	}
	return cs, tab
}

func TestExactClassShapleyMatchesKernel(t *testing.T) {
	cs, tab := testClassStructure(t)
	phi, err := ExactShapley(cs)
	if err != nil {
		t.Fatal(err)
	}
	exact := BatchedValues(tab).Shapley
	for i := range exact {
		if math.Abs(phi[i]-exact[i]) > 1e-9 {
			t.Errorf("player %d: collapsed %.12f vs kernel %.12f", i, phi[i], exact[i])
		}
	}
	// Symmetric players must receive identical shares.
	if phi[0] != phi[1] || phi[2] != phi[3] || phi[3] != phi[4] {
		t.Errorf("within-class shares differ: %v", phi)
	}
}

func TestExactClassShapleyManyClasses(t *testing.T) {
	// 40 players in 4 classes: far beyond the 2^n kernel, trivial on the
	// count lattice. Check the efficiency axiom and within-class equality.
	value := func(counts []int) float64 {
		total := 0.0
		for j, c := range counts {
			total += float64(j+1) * float64(c)
		}
		return math.Sqrt(total)
	}
	mult := []int{10, 10, 10, 10}
	classOf := make([]int, 40)
	for p := range classOf {
		classOf[p] = p / 10
	}
	cs := &ClassStructure{Mult: mult, ClassOf: classOf, Value: value}
	phi, err := ExactShapley(cs)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range phi {
		sum += p
	}
	vn := value([]int{10, 10, 10, 10})
	if math.Abs(sum-vn) > 1e-9*vn {
		t.Errorf("Σφ = %.12f, V(N) = %.12f", sum, vn)
	}
	for p := 1; p < 40; p++ {
		if classOf[p] == classOf[p-1] && phi[p] != phi[p-1] {
			t.Errorf("players %d and %d share a class but differ: %g vs %g", p-1, p, phi[p-1], phi[p])
		}
	}
}

func TestExactClassShapleyStateLimit(t *testing.T) {
	// Π(m_j+1) = 101^4 ≈ 10^8 > 2^21: the exact engine must refuse.
	cs := &ClassStructure{
		Mult:    []int{100, 100, 100, 100},
		ClassOf: make([]int, 400),
		Value:   func(counts []int) float64 { return 0 },
	}
	for p := range cs.ClassOf {
		cs.ClassOf[p] = p / 100
	}
	if _, err := ExactShapley(cs); err == nil || !strings.Contains(err.Error(), "exact limit") {
		t.Errorf("expected state-limit error, got %v", err)
	}
}

func TestClassStructureValidate(t *testing.T) {
	ok := func(counts []int) float64 { return 0 }
	cases := []struct {
		name string
		cs   ClassStructure
		want string
	}{
		{"no value", ClassStructure{Mult: []int{1}, ClassOf: []int{0}}, "no value function"},
		{"zero mult", ClassStructure{Mult: []int{0}, ClassOf: nil, Value: ok}, "non-positive multiplicity"},
		{"sum mismatch", ClassStructure{Mult: []int{2}, ClassOf: []int{0}, Value: ok}, "sum to"},
		{"unknown class", ClassStructure{Mult: []int{1}, ClassOf: []int{3}, Value: ok}, "unknown class"},
		{"miscounted class", ClassStructure{Mult: []int{1, 1}, ClassOf: []int{0, 0}, Value: ok}, "assigned players"},
		// The collapsed game's memo encodes counts as uint16: a class of
		// 65536 players would alias its full count onto the empty one.
		{"uint16 overflow", ClassStructure{Mult: []int{math.MaxUint16 + 1}, ClassOf: make([]int, math.MaxUint16+1), Value: ok}, "exceeds 65535"},
	}
	for _, tc := range cases {
		if err := tc.cs.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
	largest := ClassStructure{Mult: []int{math.MaxUint16}, ClassOf: make([]int, math.MaxUint16), Value: ok}
	if err := largest.Validate(); err != nil {
		t.Errorf("multiplicity %d should validate: %v", math.MaxUint16, err)
	}
}

func TestClassMemberGameMatchesStructure(t *testing.T) {
	cs, tab := testClassStructure(t)
	mg := cs.MemberGame()
	if mg.N() != 6 {
		t.Fatalf("N = %d, want 6", mg.N())
	}
	// Every coalition through the memoized adapter must match the dense
	// table; hammered concurrently this doubles as the memo's race test.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			members := make([]int, 0, 6)
			for m := 1; m < 1<<6; m++ {
				members = members[:0]
				for p := 0; p < 6; p++ {
					if m&(1<<uint(p)) != 0 {
						members = append(members, p)
					}
				}
				got := mg.ValueMembers(members)
				want := tab.Value(setOf(members))
				if got != want {
					t.Errorf("coalition %b: memo %.12f vs table %.12f", m, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestApproxCollapsedMatchesExact(t *testing.T) {
	cs, _ := testClassStructure(t)
	exact, err := ExactShapley(cs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ApproxShapley(cs.MemberGame(), ApproxOptions{
		Samples: 8000, Seed: 17, Groups: cs.Groups(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		tol := 5*res.CIHalf[i] + 1e-9
		if diff := math.Abs(res.Phi[i] - exact[i]); diff > tol {
			t.Errorf("player %d: collapsed sample %.6f vs exact %.6f (diff %.2g > tol %.2g)",
				i, res.Phi[i], exact[i], diff, tol)
		}
	}
}
