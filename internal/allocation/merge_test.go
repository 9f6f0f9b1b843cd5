package allocation

import (
	"reflect"
	"testing"

	"fedshare/internal/stats"
)

// replicaPools draws a templated pool twice: once with one class per
// replica, and once with every run of adjacent equal-capacity replicas
// merged into a single class — c replicas of (L, R) become {c·L, R}. Both
// list the same locations in the same order.
func replicaPools(rng *stats.Rand) (replicas, merged Pool) {
	caps := []float64{0, 0.5, 1, 1, 2, 3} // duplicates make runs cross templates
	for t, templates := 0, 1+rng.Intn(4); t < templates; t++ {
		count, capacity := rng.Intn(4), caps[rng.Intn(len(caps))]
		for r, c := 0, 1+rng.Intn(3); r < c; r++ {
			replicas.Classes = append(replicas.Classes, Class{Label: "replica", Count: count, Capacity: capacity})
			if n := len(merged.Classes); n > 0 && merged.Classes[n-1].Capacity == capacity {
				merged.Classes[n-1].Count += count
				continue
			}
			merged.Classes = append(merged.Classes, Class{Label: "run", Count: count, Capacity: capacity})
		}
	}
	return replicas, merged
}

// mergeRequests draws a request list for one of three regimes: the
// analytic domain (identical linear requests), the fast domain (linear,
// uniform resources, mixed minima), or the general greedy domain (shapes
// 0.5/1/1.7, mixed resources, bounded Max).
func mergeRequests(rng *stats.Rand, regime, locations int) []Request {
	reqs := make([]Request, 1+rng.Intn(6))
	res := []float64{0.5, 1, 2}[rng.Intn(3)]
	l := rng.Intn(locations + 3)
	for j := range reqs {
		switch regime {
		case 0:
			reqs[j] = Request{Min: l, Shape: 1, Resources: res}
		case 1:
			reqs[j] = Request{Min: rng.Intn(locations + 3), Shape: 1, Resources: res}
		default:
			reqs[j] = Request{
				Min:       rng.Intn(locations/2 + 2),
				Shape:     []float64{0.5, 1, 1.7}[rng.Intn(3)],
				Resources: []float64{0.5, 1, 2}[rng.Intn(3)],
			}
			if rng.Intn(3) == 0 {
				reqs[j].Max = reqs[j].Min + rng.Intn(4)
			}
		}
	}
	return reqs
}

// TestMergedReplicaClassesIdentical checks the property the federation
// model's utility-only pools rely on: merging adjacent equal-capacity
// classes changes neither Utility nor X, bit for bit, in any engine.
func TestMergedReplicaClassesIdentical(t *testing.T) {
	rng := stats.NewRand(1207)
	type engine struct {
		name    string
		applies func(Pool, []Request) bool
		solve   func(Pool, []Request) *Result
	}
	engines := []engine{
		{"analytic", AnalyticApplies, solveAnalytic},
		{"fast", fastApplies, solveFast},
		{"greedy", func(Pool, []Request) bool { return true }, solveGreedy},
		{"Solve", func(Pool, []Request) bool { return true }, Solve},
	}
	ran := map[string]int{}
	for trial := 0; trial < 12000; trial++ {
		replicas, merged := replicaPools(rng)
		if replicas.TotalLocations() != merged.TotalLocations() {
			t.Fatalf("trial %d: merging changed the location count", trial)
		}
		reqs := mergeRequests(rng, trial%3, replicas.TotalLocations())
		for _, e := range engines {
			if !e.applies(replicas, reqs) {
				continue
			}
			ran[e.name]++
			want, got := e.solve(replicas, reqs), e.solve(merged, reqs)
			if got.Utility != want.Utility || !reflect.DeepEqual(got.X, want.X) {
				t.Fatalf("trial %d, %s: merged %v gives utility %v X %v; replicas %v give %v X %v (reqs %+v)",
					trial, e.name, merged.Classes, got.Utility, got.X, replicas.Classes, want.Utility, want.X, reqs)
			}
		}
	}
	for _, e := range engines {
		if ran[e.name] < 3000 {
			t.Errorf("engine %s ran on only %d instances", e.name, ran[e.name])
		}
	}
}
