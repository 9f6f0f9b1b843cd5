package main

// Seeded input generators, one per workload. They are the only source of
// the benchmark's inputs: the runners in fed.go and sweep.go consume what
// these functions produce and nothing else, so the same seed always drives
// the program with byte-identical inputs (gen_test.go holds that).

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
)

// authoritySpec sizes one in-process authority.
type authoritySpec struct {
	Name  string
	Sites int
}

// federationShape is the three-authority federation of the fed-* workloads:
// site counts in the paper's PLC:PLE:PLJ = 1:4:8 ratio. Every site has
// nodesPerSite nodes of nodeCapacity sliver slots, far more than the two
// closed-loop clients can hold at once, so no placement fails for want of
// capacity.
var federationShape = []authoritySpec{{"PLC", 4}, {"PLE", 16}, {"PLJ", 32}}

const (
	nodesPerSite = 2
	nodeCapacity = 4
	// fedClients is the closed loop's client-connection count (one per
	// core of the two-core reference host).
	fedClients = 2
)

// Federation operation kinds. One op is one unit drawn from the mix; it
// issues one to three client calls.
const (
	opSlice   = "slice"   // CreateSlice + DeleteSlice, federated
	opReserve = "reserve" // Reserve + idempotent renew + Release at PLC
	opShares  = "shares"  // GetShares(shapley): fans out ListResources
	opList    = "list"    // ListResources at PLC
)

// fedOp is one generated federation operation.
type fedOp struct {
	Kind     string `json:"kind"`
	Name     string `json:"name,omitempty"`
	MinSites int    `json:"min_sites,omitempty"`
}

// fedStream draws one client's operation sequence.
type fedStream struct {
	rng    *rand.Rand
	mixed  bool
	prefix string
	n      int
}

func newFedStream(mixed bool, seed int64, client int) *fedStream {
	return &fedStream{
		rng:    rand.New(rand.NewSource(seed*7919 + int64(client)*104729 + 1)),
		mixed:  mixed,
		prefix: fmt.Sprintf("s%d-c%d", seed, client),
	}
}

// next returns the client's next operation. A federated slice's MinSites is
// drawn above PLC's own site count, so every slice needs peer Reserve and
// Release; the draw reaches into PLJ for roughly half the slices.
func (s *fedStream) next() fedOp {
	s.n++
	kind := opSlice
	if s.mixed {
		switch u := s.rng.Float64(); {
		case u < 0.60:
			kind = opReserve
		case u < 0.725:
			kind = opShares
		case u < 0.85:
			kind = opList
		}
	}
	op := fedOp{Kind: kind}
	switch kind {
	case opSlice, opReserve:
		op.Name = fmt.Sprintf("%s-%d", s.prefix, s.n)
	}
	if kind == opSlice {
		plc, ple, plj := federationShape[0].Sites, federationShape[1].Sites, federationShape[2].Sites
		lo, hi := plc+1, plc+ple+plj/2
		op.MinSites = lo + s.rng.Intn(hi-lo+1)
	}
	return op
}

// facilityBase is a facility template before seeded jitter: locations,
// per-location resources, replica count.
type facilityBase struct{ locations, resources, count int }

// sweepLargeFamilies is the repeating order of experiment families in
// sweep-large: template-built federations of 100 and 120 facilities
// (shaped like examples/scenarios/hetero100 and hetero200) around one of
// 100 distinct facilities, which defeats symmetry collapse so the
// prefix-solver walk runs. A fixed family order with seeded jitter inside
// each family keeps the work mix of every run alike across seeds while no
// two experiments share inputs; the runner measures whole cycles, and an
// odd cycle length puts the median inside one family.
var sweepLargeFamilies = []struct {
	templates []facilityBase
	distinct  int
}{
	{templates: []facilityBase{{10, 8, 40}, {25, 4, 25}, {60, 2, 20}, {150, 1, 15}}},
	{distinct: 100},
	{templates: []facilityBase{{10, 8, 40}, {25, 4, 30}, {60, 2, 25}, {150, 1, 15}, {400, 1, 10}}},
}

// sweepShapesFamilies is the repeating order of federations in
// sweep-shapes (counts are unused: every facility is distinct), measured
// in whole cycles like sweepLargeFamilies.
var sweepShapesFamilies = [][]facilityBase{
	{{20, 30, 1}, {45, 20, 1}, {70, 10, 1}},
	{{15, 35, 1}, {30, 25, 1}, {50, 15, 1}, {70, 10, 1}},
	{{12, 40, 1}, {25, 30, 1}, {40, 20, 1}, {55, 15, 1}, {75, 8, 1}},
}

// jitter scales v by a seeded factor in [1-f, 1+f], rounded, at least 1.
func jitter(rng *rand.Rand, v int, f float64) int {
	return max(1, int(math.Round(float64(v)*(1-f+2*f*rng.Float64()))))
}

// sweepCycle is the number of experiments in one family cycle.
func sweepCycle(workload string) int {
	if workload == wlSweepLarge {
		return len(sweepLargeFamilies)
	}
	return len(sweepShapesFamilies)
}

// genSweepSpecs returns the first n experiment specs of a sweep workload,
// as the JSON documents a client would submit.
func genSweepSpecs(workload string, seed int64, n int) ([][]byte, error) {
	rng := rand.New(rand.NewSource(seed*31 + 17))
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		var spec map[string]any
		switch workload {
		case wlSweepLarge:
			spec = genLargeSpec(rng, i)
		case wlSweepShapes:
			spec = genShapesSpec(rng, i)
		default:
			return nil, fmt.Errorf("no sweep generator for workload %q", workload)
		}
		b, err := json.Marshal(spec)
		if err != nil {
			return nil, fmt.Errorf("encode spec %d: %w", i, err)
		}
		out = append(out, b)
	}
	return out, nil
}

// genLargeSpec builds one sweep-large experiment: a 100–200-facility
// federation from 4–6 templates (or of distinct facilities), sampled
// Shapley to a 1% CI target beside proportional, over a threshold axis.
func genLargeSpec(rng *rand.Rand, i int) map[string]any {
	fam := sweepLargeFamilies[i%len(sweepLargeFamilies)]
	var facilities []map[string]any
	totalLocations := 0
	// Distinct location counts make every facility its own symmetry
	// class.
	for k, off := range rng.Perm(391)[:fam.distinct] {
		loc := 10 + off
		facilities = append(facilities, map[string]any{
			"name": fmt.Sprintf("D%d", k+1), "locations": loc, "resources": 1 + rng.Intn(8),
		})
		totalLocations += loc
	}
	counts := make([]int, len(fam.templates))
	for k, t := range fam.templates {
		counts[k] = t.count
	}
	// Move a few replicas between templates; the facility total stays.
	for moves := 0; moves < 2 && len(counts) > 1; moves++ {
		from, to := rng.Intn(len(counts)), rng.Intn(len(counts))
		if counts[from] > 1 {
			counts[from]--
			counts[to]++
		}
	}
	for k, t := range fam.templates {
		loc := jitter(rng, t.locations, 0.05)
		facilities = append(facilities, map[string]any{
			"name": fmt.Sprintf("T%d", k+1), "locations": loc, "resources": t.resources, "count": counts[k],
		})
		totalLocations += loc * counts[k]
	}
	// Two thresholds: every facility useful alone, and only coalitions
	// holding about 30% of the federation's locations useful.
	axis := []float64{0, math.Round((0.29 + 0.02*rng.Float64()) * float64(totalLocations))}
	return map[string]any{
		"id":         fmt.Sprintf("large-%d", i),
		"facilities": facilities,
		"demand":     []map[string]any{{"name": "batch", "count": jitter(rng, 25, 0.08)}},
		"policies":   []string{"shapley-approx", "proportional"},
		"axis":       map[string]any{"variable": "threshold", "values": axis},
		"method":     "approx",
		"ci_target":  0.01,
		"seed":       1 + rng.Intn(1<<30),
	}
}

// genShapesSpec builds one sweep-shapes experiment: a small federation
// with an elastic (d < 1) class beside a strict (d > 1) class, exact
// Shapley, Banzhaf, proportional and consumption shares over a mixture
// axis.
func genShapesSpec(rng *rand.Rand, i int) map[string]any {
	fam := sweepShapesFamilies[i%len(sweepShapesFamilies)]
	var facilities []map[string]any
	totalLocations := 0
	for k, f := range fam {
		loc := jitter(rng, f.locations, 0.15)
		facilities = append(facilities, map[string]any{
			"name": fmt.Sprintf("F%d", k+1), "locations": loc, "resources": jitter(rng, f.resources, 0.15),
		})
		totalLocations += loc
	}
	return map[string]any{
		"id":         fmt.Sprintf("shapes-%d", i),
		"facilities": facilities,
		"demand": []map[string]any{
			{"name": "elastic", "count": 8, "shape": 0.6 + 0.2*rng.Float64(), "holding_time": 0.5},
			{"name": "strict", "count": 0, "min_locations": math.Round((0.4 + 0.1*rng.Float64()) * float64(totalLocations)),
				"shape": 1.2 + 0.2*rng.Float64(), "strict": true},
		},
		"policies": []string{"shapley", "banzhaf", "proportional", "consumption"},
		"axis":     map[string]any{"variable": "sigma", "target": "strict", "values": []float64{0, 0.5, 1}},
	}
}
