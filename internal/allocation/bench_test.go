package allocation

import "testing"

func benchInstance() (Pool, []Request) {
	pool := Pool{Classes: []Class{
		{Label: "a", Count: 40, Capacity: 2},
		{Label: "b", Count: 60, Capacity: 1},
		{Label: "c", Count: 25, Capacity: 3},
	}}
	reqs := make([]Request, 100)
	for j := range reqs {
		reqs[j] = Request{Min: 40, Shape: 1, Resources: 1}
	}
	return pool, reqs
}

// BenchmarkSolveFast measures the full Gale–Ryser admission loop.
func BenchmarkSolveFast(b *testing.B) {
	pool, reqs := benchInstance()
	for i := 0; i < b.N; i++ {
		solveFast(pool, reqs)
	}
}

// BenchmarkSolveAnalytic measures the closed-form engine on the same
// instance (cold, no memo).
func BenchmarkSolveAnalytic(b *testing.B) {
	pool, reqs := benchInstance()
	for i := 0; i < b.N; i++ {
		solveAnalytic(pool, reqs)
	}
}

// BenchmarkSolveMemoWarm measures a warm memo hit including key
// construction and result remapping.
func BenchmarkSolveMemoWarm(b *testing.B) {
	pool, reqs := benchInstance()
	m := NewMemo()
	m.Solve(pool, reqs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Solve(pool, reqs)
	}
}

// BenchmarkMemoKeyWide measures key construction for a 100-class pool in
// descending-capacity order — one class per distinct facility, as
// GrandValue, Value on distinct facilities and PrefixSolver's fallback
// Lookup build it — the worst case for an insertion sort.
func BenchmarkMemoKeyWide(b *testing.B) {
	pool := Pool{Classes: make([]Class, 100)}
	for c := range pool.Classes {
		pool.Classes[c] = Class{Label: "f", Count: 5 + c%7, Capacity: float64(200 - c)}
	}
	reqs := memoTestReqs(40, 10)
	s := &memoScratch{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		memoKey(s, pool, reqs)
	}
}
