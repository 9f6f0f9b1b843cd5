package allocation

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

func memoTestPool() Pool {
	return Pool{Classes: []Class{
		{Label: "a", Count: 10, Capacity: 2},
		{Label: "b", Count: 20, Capacity: 1},
	}}
}

func memoTestReqs(k, l int) []Request {
	reqs := make([]Request, k)
	for j := range reqs {
		reqs[j] = Request{Min: l, Shape: 1, Resources: 1}
	}
	return reqs
}

// TestMemoHitMiss checks the counters and that a hit reproduces the direct
// solve exactly.
func TestMemoHitMiss(t *testing.T) {
	m := NewMemo()
	pool := memoTestPool()
	reqs := memoTestReqs(8, 3)
	want := Solve(pool, reqs)

	first := m.Solve(pool, reqs)
	if s := m.Stats(); s.Hits != 0 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("after first solve: %+v", s)
	}
	second := m.Solve(pool, reqs)
	if s := m.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("after second solve: %+v", s)
	}
	for _, got := range []*Result{first, second} {
		if got.Utility != want.Utility ||
			!reflect.DeepEqual(got.X, want.X) ||
			!reflect.DeepEqual(got.ConsumedByClass, want.ConsumedByClass) ||
			!reflect.DeepEqual(got.SlotsByClass, want.SlotsByClass) {
			t.Fatalf("memo result %+v != direct %+v", got, want)
		}
	}
	if s := m.Stats(); s.HitRate() != 0.5 {
		t.Fatalf("hit rate %g, want 0.5", s.HitRate())
	}

	m.Reset()
	if s := m.Stats(); s.Hits != 0 || s.Misses != 0 || s.Entries != 0 {
		t.Fatalf("after reset: %+v", s)
	}
}

// TestMemoCanonicalPermutation checks the aggregate key: the same class
// multiset presented in a different order (different labels, too) must hit
// the same entry, with class-indexed fields remapped to the caller's order.
func TestMemoCanonicalPermutation(t *testing.T) {
	m := NewMemo()
	fwd := Pool{Classes: []Class{
		{Label: "x", Count: 10, Capacity: 2},
		{Label: "y", Count: 20, Capacity: 1},
	}}
	rev := Pool{Classes: []Class{
		{Label: "p", Count: 20, Capacity: 1},
		{Label: "q", Count: 10, Capacity: 2},
	}}
	reqs := memoTestReqs(15, 2)

	a := m.Solve(fwd, reqs)
	b := m.Solve(rev, reqs)
	if s := m.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("permuted pool should share one entry: %+v", s)
	}
	if a.Utility != b.Utility {
		t.Fatalf("utility differs across permutation: %g != %g", a.Utility, b.Utility)
	}
	// Class identity must survive the remap: fwd's class 0 is rev's class 1.
	if a.ConsumedByClass[0] != b.ConsumedByClass[1] || a.ConsumedByClass[1] != b.ConsumedByClass[0] {
		t.Fatalf("consumption remap wrong: %v vs %v", a.ConsumedByClass, b.ConsumedByClass)
	}
	if a.SlotsByClass[0] != b.SlotsByClass[1] || a.SlotsByClass[1] != b.SlotsByClass[0] {
		t.Fatalf("slots remap wrong: %v vs %v", a.SlotsByClass, b.SlotsByClass)
	}
}

// TestMemoKeySensitivity checks that solver-relevant differences miss while
// label-only differences hit.
func TestMemoKeySensitivity(t *testing.T) {
	m := NewMemo()
	pool := memoTestPool()
	m.Solve(pool, memoTestReqs(8, 3))

	relabeled := memoTestPool()
	relabeled.Classes[0].Label = "renamed"
	m.Solve(relabeled, memoTestReqs(8, 3))
	if s := m.Stats(); s.Hits != 1 {
		t.Fatalf("label change must still hit: %+v", s)
	}

	m.Solve(pool, memoTestReqs(8, 4)) // different Min
	m.Solve(pool, memoTestReqs(9, 3)) // different K
	bigger := memoTestPool()
	bigger.Classes[0].Count++
	m.Solve(bigger, memoTestReqs(8, 3)) // different class multiset
	if s := m.Stats(); s.Hits != 1 || s.Misses != 4 {
		t.Fatalf("parameter changes must miss: %+v", s)
	}
}

// TestMemoDisabled checks that a disabled table neither serves nor records.
func TestMemoDisabled(t *testing.T) {
	m := NewMemo()
	if was := m.SetEnabled(false); !was {
		t.Fatal("memo should start enabled")
	}
	pool := memoTestPool()
	reqs := memoTestReqs(8, 3)
	want := Solve(pool, reqs)
	got := m.Solve(pool, reqs)
	if got.Utility != want.Utility || !reflect.DeepEqual(got.ConsumedByClass, want.ConsumedByClass) {
		t.Fatalf("disabled memo must match direct solve")
	}
	if s := m.Stats(); s.Hits != 0 || s.Misses != 0 || s.Entries != 0 {
		t.Fatalf("disabled memo must not count: %+v", s)
	}
	if was := m.SetEnabled(true); was {
		t.Fatal("SetEnabled(false) should have reported disabled")
	}
}

// TestMemoConcurrent hammers one table from many goroutines over a small
// instance universe and checks every answer against the direct solver (run
// under -race to check the striped locking).
func TestMemoConcurrent(t *testing.T) {
	m := NewMemo()
	type instance struct {
		pool Pool
		reqs []Request
	}
	var instances []instance
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 12; i++ {
		pool := Pool{Classes: []Class{
			{Label: "a", Count: 1 + rng.Intn(8), Capacity: []float64{1, 2}[rng.Intn(2)]},
			{Label: "b", Count: rng.Intn(8), Capacity: 1},
		}}
		instances = append(instances, instance{pool: pool, reqs: memoTestReqs(1+rng.Intn(10), rng.Intn(6))})
	}
	wants := make([]*Result, len(instances))
	for i, in := range instances {
		wants[i] = Solve(in.pool, in.reqs)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for iter := 0; iter < 200; iter++ {
				i := r.Intn(len(instances))
				got := m.Solve(instances[i].pool, instances[i].reqs)
				if got.Utility != wants[i].Utility || !reflect.DeepEqual(got.ConsumedByClass, wants[i].ConsumedByClass) {
					select {
					case errs <- "concurrent memo result diverged":
					default:
					}
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
	if s := m.Stats(); s.Hits+s.Misses != 8*200 {
		t.Fatalf("lost lookups: %+v", s)
	}
}

// insertionMemoOrder is the canonical class order memoKey used to build
// with an insertion sort: ascending (Capacity, Count), ties in input order.
// It is kept as the reference for the stable sort that replaced it.
func insertionMemoOrder(pool Pool) (perm []int, identity bool) {
	perm = make([]int, len(pool.Classes))
	for i := range perm {
		perm[i] = i
	}
	less := func(a, b Class) bool {
		if a.Capacity != b.Capacity {
			return a.Capacity < b.Capacity
		}
		return a.Count < b.Count
	}
	identity = true
	for i := 1; i < len(perm); i++ {
		for j := i; j > 0 && less(pool.Classes[perm[j]], pool.Classes[perm[j-1]]); j-- {
			perm[j], perm[j-1] = perm[j-1], perm[j]
			identity = false
		}
	}
	return perm, identity
}

// TestMemoKeyOrderMatchesInsertionSort checks that memoKey's canonical
// permutation and identity flag are those of the former insertion sort on
// random pools dense in (Capacity, Count) ties, so every key stays
// byte-identical.
func TestMemoKeyOrderMatchesInsertionSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1208))
	s := &memoScratch{}
	reqs := memoTestReqs(3, 1)
	for trial := 0; trial < 5000; trial++ {
		pool := Pool{Classes: make([]Class, rng.Intn(40))}
		for c := range pool.Classes {
			pool.Classes[c] = Class{Label: "c", Count: rng.Intn(4), Capacity: float64(rng.Intn(5)) / 2}
		}
		if trial%4 == 0 {
			slices.SortFunc(pool.Classes, func(a, b Class) int { return cmp.Compare(b.Capacity, a.Capacity) })
		}
		wantPerm, wantIdentity := insertionMemoOrder(pool)
		gotIdentity := memoKey(s, pool, reqs)
		if gotIdentity != wantIdentity || !slices.Equal(s.perm, wantPerm) {
			t.Fatalf("trial %d: perm %v identity %v, insertion sort gives %v %v (pool %+v)",
				trial, s.perm, gotIdentity, wantPerm, wantIdentity, pool.Classes)
		}
	}
}
