package coalition

import (
	"math"
	"strings"
	"testing"

	"fedshare/internal/combin"
)

// structuredMemberGame pairs a large synthetic member game with its class
// structure for dispatcher tests.
type structuredMemberGame struct {
	MemberGame
	st *ClassStructure
}

func (g structuredMemberGame) ClassStructure() *ClassStructure { return g.st }

// bigClassGame builds an n-player game of k interchangeable classes exposed
// via the ClassStructured interface.
func bigClassGame(n, k int) structuredMemberGame {
	classOf := make([]int, n)
	mult := make([]int, k)
	for p := range classOf {
		classOf[p] = p % k
		mult[p%k]++
	}
	value := func(counts []int) float64 {
		total := 0.0
		for j, c := range counts {
			total += float64(j+1) * float64(c)
		}
		return math.Pow(total, 0.9)
	}
	st := &ClassStructure{Mult: mult, ClassOf: classOf, Value: value}
	return structuredMemberGame{MemberGame: st.MemberGame(), st: st}
}

// TestValuesRejectsOversizedClass checks that the sampled-collapse path
// validates the structure before keying its uint16 count memo.
func TestValuesRejectsOversizedClass(t *testing.T) {
	g := bigClassGame(2*(math.MaxUint16+1), 2)
	g.st.Value = func([]int) float64 { panic("oversized class structure reached the value function") }
	for _, method := range []Method{MethodAuto, MethodApprox} {
		_, err := Values(g, Options{Method: method, Samples: 8, Seed: 1})
		if err == nil || !strings.Contains(err.Error(), "exceeds 65535") {
			t.Errorf("method %s: error %v, want the multiplicity bound", method, err)
		}
	}
}

func TestValuesPicksKernelForSmallGames(t *testing.T) {
	tab := randomMonotoneTable(t, 8, 5)
	res, err := Values(AsMemberGameTable(tab), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != EngineKernel {
		t.Fatalf("method %q, want %q", res.Method, EngineKernel)
	}
	exact := BatchedValues(tab).Shapley
	for i := range exact {
		if res.Phi[i] != exact[i] {
			t.Errorf("player %d: %g vs kernel %g", i, res.Phi[i], exact[i])
		}
	}
	if res.CIHalf != nil || res.Samples != 0 || !res.Converged {
		t.Errorf("unexpected kernel result metadata: %+v", res)
	}
}

// AsMemberGameTable lifts a *Table through the Game interface so the
// dispatcher sees both Game and MemberGame (as core.Model will).
func AsMemberGameTable(tab *Table) MemberGame { return tableMemberGame{tab} }

type tableMemberGame struct{ t *Table }

func (g tableMemberGame) N() int { return g.t.N() }
func (g tableMemberGame) Value(s combin.Set) float64 {
	return g.t.Value(s)
}
func (g tableMemberGame) ValueMembers(members []int) float64 {
	return g.t.Value(setOf(members))
}

func TestValuesPicksExactCollapsed(t *testing.T) {
	g := bigClassGame(60, 3) // 2^60 infeasible, 21^3 states trivial
	res, err := Values(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != EngineExactCollapsed {
		t.Fatalf("method %q, want %q", res.Method, EngineExactCollapsed)
	}
	want, err := ExactShapley(g.st)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if res.Phi[i] != want[i] {
			t.Errorf("player %d: %g vs exact collapsed %g", i, res.Phi[i], want[i])
		}
	}
}

func TestValuesPicksApproxCollapsed(t *testing.T) {
	g := bigClassGame(120, 8) // 16^8 ≈ 4·10^9 states: beyond the exact lattice
	res, err := Values(g, Options{Samples: 240, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != EngineApproxCollapsed {
		t.Fatalf("method %q, want %q", res.Method, EngineApproxCollapsed)
	}
	if res.CIHalf == nil || res.Samples == 0 {
		t.Errorf("missing sampling metadata: %+v", res)
	}
	// Interchangeable players must be pooled: identical shares in-class.
	for p := 8; p < 120; p++ {
		if res.Phi[p] != res.Phi[p%8] {
			t.Errorf("players %d and %d share a class but differ", p%8, p)
		}
	}
}

func TestValuesPicksPlainApproxWithoutStructure(t *testing.T) {
	g, _ := sumWeightGame(40, 2)
	res, err := Values(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != EngineApprox {
		t.Fatalf("method %q, want %q", res.Method, EngineApprox)
	}
	if res.Samples < DefaultApproxSamples {
		t.Errorf("default budget not applied: %d samples", res.Samples)
	}
}

func TestValuesMethodExactErrorsWhenInfeasible(t *testing.T) {
	g, _ := sumWeightGame(40, 2)
	if _, err := Values(g, Options{Method: MethodExact}); err == nil ||
		!strings.Contains(err.Error(), "no exact engine") {
		t.Errorf("expected infeasibility error, got %v", err)
	}
}

func TestValuesMethodApproxForcesSamplingOnSmallGames(t *testing.T) {
	tab := randomMonotoneTable(t, 6, 9)
	res, err := Values(AsMemberGameTable(tab), Options{Method: MethodApprox, Samples: 5000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != EngineApprox {
		t.Fatalf("method %q, want %q", res.Method, EngineApprox)
	}
	exact := BatchedValues(tab).Shapley
	for i := range exact {
		if diff := math.Abs(res.Phi[i] - exact[i]); diff > 5*res.CIHalf[i]+1e-9 {
			t.Errorf("player %d: %g vs exact %g", i, res.Phi[i], exact[i])
		}
	}
}

func TestValuesUnknownMethod(t *testing.T) {
	g, _ := sumWeightGame(4, 1)
	if _, err := Values(g, Options{Method: "banzhaf"}); err == nil ||
		!strings.Contains(err.Error(), "unknown method") {
		t.Errorf("expected unknown-method error, got %v", err)
	}
}

func TestValuesExplicitStructureOverridesInterface(t *testing.T) {
	// Supplying Options.Structure lets callers collapse games that do not
	// implement ClassStructured themselves.
	st := bigClassGame(60, 3).st
	res, err := Values(st.MemberGame(), Options{Structure: st})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != EngineExactCollapsed {
		t.Fatalf("method %q, want %q", res.Method, EngineExactCollapsed)
	}
}

func TestValuesEmptyGame(t *testing.T) {
	g := MemberFunc{Players: 0, V: func([]int) float64 { return 0 }}
	res, err := Values(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phi) != 0 || !res.Converged {
		t.Errorf("unexpected empty result %+v", res)
	}
}
