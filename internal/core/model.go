// Package core implements the paper's primary contribution: the economic
// model of federated virtualized infrastructures (Sec. 2) and the federation
// game built on it (Sec. 3). A Model couples the facilities' contributions
// (locations L_i, per-location resources R_i, availability T_i) with a
// demand workload; its characteristic function V(S) is the maximum total
// utility coalition S can serve, computed by the allocation engine. Sharing
// policies — Shapley, availability-proportional, consumption-proportional,
// equal split, nucleolus — divide V(N) among the facilities.
package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"fedshare/internal/allocation"
	"fedshare/internal/coalition"
	"fedshare/internal/combin"
	"fedshare/internal/economics"
	"fedshare/internal/stats"
)

// Facility is one resource provider (a PlanetLab regional authority, a
// testbed, a cloud region).
type Facility struct {
	Name string
	// Locations is L_i: the number of distinct locations the facility
	// contributes.
	Locations int
	// Resources is R_i: the resource units (slots for concurrent
	// experiments) available at each of its locations.
	Resources float64
	// Availability is T_i ∈ (0, 1]; 0 means "use the default of 1"
	// (the paper's analysis assumption).
	Availability float64
	// Users is U_i, the facility's affiliated user population (P2P
	// scenario bookkeeping; not used by the commercial value function).
	Users int
	// Cost is the facility's provision-cost model (zero by default, per
	// the paper's sunk-cost assumption).
	Cost economics.Cost
}

func (f Facility) availability() float64 {
	if f.Availability == 0 {
		return 1
	}
	return f.Availability
}

// EffectiveCapacity returns R_i·T_i, the capacity the facility actually
// offers per location.
func (f Facility) EffectiveCapacity() float64 {
	return f.Resources * f.availability()
}

// Validate checks the facility definition.
func (f Facility) Validate() error {
	if f.Locations < 0 {
		return fmt.Errorf("core: facility %s has negative locations", f.Name)
	}
	if f.Resources < 0 {
		return fmt.Errorf("core: facility %s has negative resources", f.Name)
	}
	if f.Availability < 0 || f.Availability > 1 {
		return fmt.Errorf("core: facility %s availability %g outside [0,1]", f.Name, f.Availability)
	}
	return nil
}

// Model is the federation game instance: who contributes what, and what the
// demand looks like.
type Model struct {
	Facilities []Facility
	Demand     *economics.Workload
	// Mu is the market conversion from utility to profit (µ ≤ 1 in the
	// paper); 0 means 1.
	Mu float64
	// Overlap, when non-nil, maps each facility to the explicit set of
	// location identifiers it covers (Sec. 2.1's overlap model o_ij).
	// When nil, facilities cover pairwise-disjoint locations, which is
	// the paper's setting for all numerical figures.
	Overlap [][]int

	// mu guards the lazily-built game and request caches so concurrent
	// sweep workers can share a model safely; reqs is additionally
	// published through an atomic pointer so the per-coalition read in
	// Value stays lock-free.
	mu    sync.Mutex
	game  *coalition.SafeCache
	table *coalition.Table
	reqs  atomic.Pointer[[]allocation.Request]
}

// MaxFacilities bounds federation size. The bitmask-based exact engines
// stop at combin.MaxPlayers (64); beyond that every computation runs
// through the member-list tier (ValueMembers, coalition.Values), which has
// no representational limit — the bound exists only to catch absurd
// configurations early.
const MaxFacilities = 4096

// NewModel validates and builds a federation model.
func NewModel(facilities []Facility, demand *economics.Workload) (*Model, error) {
	if len(facilities) == 0 {
		return nil, fmt.Errorf("core: federation needs at least one facility")
	}
	if len(facilities) > MaxFacilities {
		return nil, fmt.Errorf("core: at most %d facilities supported", MaxFacilities)
	}
	for _, f := range facilities {
		if err := f.Validate(); err != nil {
			return nil, err
		}
	}
	if demand == nil {
		demand = &economics.Workload{}
	}
	return &Model{Facilities: facilities, Demand: demand}, nil
}

// WithOverlap samples an overlap structure: each facility covers L_i
// distinct locations drawn uniformly from a universe of the given size, so
// the pairwise overlap probability o_ij is governed by universe size
// (independent placement, as the paper suggests for simplicity). It returns
// the model for chaining and is deterministic given the rng.
func (m *Model) WithOverlap(universe int, rng *stats.Rand) (*Model, error) {
	if m.N() > combin.MaxPlayers {
		return nil, fmt.Errorf("core: overlap models are limited to %d facilities (the coalition bitmask bound); have %d",
			combin.MaxPlayers, m.N())
	}
	for _, f := range m.Facilities {
		if f.Locations > universe {
			return nil, fmt.Errorf("core: facility %s has %d locations, universe only %d",
				f.Name, f.Locations, universe)
		}
	}
	m.Overlap = make([][]int, len(m.Facilities))
	for i, f := range m.Facilities {
		perm := rng.Perm(universe)
		ids := append([]int(nil), perm[:f.Locations]...)
		m.Overlap[i] = ids
	}
	m.Invalidate()
	return m, nil
}

// muFactor returns the profit conversion factor.
func (m *Model) muFactor() float64 {
	if m.Mu == 0 {
		return 1
	}
	return m.Mu
}

// N returns the number of facilities.
func (m *Model) N() int { return len(m.Facilities) }

// ownerWeight attributes a pool class to contributing facilities.
type ownerWeight struct {
	facility int
	frac     float64
}

// pooling couples an allocation pool with the attribution of each class's
// consumption back to facilities.
type pooling struct {
	pool   allocation.Pool
	owners [][]ownerWeight // per class
}

// poolFor builds the location pool available to coalition s.
func (m *Model) poolFor(s combin.Set) pooling {
	if m.Overlap == nil {
		var p pooling
		for _, i := range s.Members() {
			f := m.Facilities[i]
			if f.Locations == 0 {
				continue
			}
			p.pool.Classes = append(p.pool.Classes, allocation.Class{
				Label:    f.Name,
				Count:    f.Locations,
				Capacity: f.EffectiveCapacity(),
			})
			p.owners = append(p.owners, []ownerWeight{{facility: i, frac: 1}})
		}
		return p
	}
	// Overlapping coverage: group locations by the exact subset of
	// coalition members covering them; capacities add where facilities
	// overlap.
	cover := map[int]combin.Set{}
	for _, i := range s.Members() {
		for _, loc := range m.Overlap[i] {
			cover[loc] = cover[loc].With(i)
		}
	}
	classCount := map[combin.Set]int{}
	for _, owners := range cover {
		classCount[owners]++
	}
	var p pooling
	combin.Subsets(s, func(owners combin.Set) bool {
		count, ok := classCount[owners]
		if !ok || owners.IsEmpty() {
			return true
		}
		capacity := 0.0
		for _, i := range owners.Members() {
			capacity += m.Facilities[i].EffectiveCapacity()
		}
		var ow []ownerWeight
		for _, i := range owners.Members() {
			frac := 0.0
			if capacity > 0 {
				frac = m.Facilities[i].EffectiveCapacity() / capacity
			}
			ow = append(ow, ownerWeight{facility: i, frac: frac})
		}
		p.pool.Classes = append(p.pool.Classes, allocation.Class{
			Label:    owners.String(),
			Count:    count,
			Capacity: capacity,
		})
		p.owners = append(p.owners, ow)
		return true
	})
	return p
}

// requests returns the demand workload expanded into allocation requests,
// building the expansion once — Value calls it for every coalition, and a
// batch workload expands to K structs each time otherwise.
func (m *Model) requests() []allocation.Request {
	if p := m.reqs.Load(); p != nil {
		return *p
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if p := m.reqs.Load(); p != nil {
		return *p
	}
	reqs := m.buildRequests()
	m.reqs.Store(&reqs)
	return reqs
}

// buildRequests expands the demand workload into allocation requests.
func (m *Model) buildRequests() []allocation.Request {
	reqs := []allocation.Request{}
	for _, class := range m.Demand.Classes {
		t := class.Type
		maxLoc := 0 // unbounded
		if !math.IsInf(t.MaxLocations, 1) {
			maxLoc = int(math.Floor(t.MaxLocations))
		}
		for k := 0; k < class.Count; k++ {
			reqs = append(reqs, allocation.Request{
				Min:       t.Utility().Threshold(),
				Max:       maxLoc,
				Shape:     t.Shape,
				Resources: t.Resources,
				Label:     t.Name,
			})
		}
	}
	return reqs
}

// Value is the characteristic function: the profit coalition s can generate
// by optimally serving the demand with its pooled resources
// (P = µ·Σ_k u_k(x_k), Sec. 3.1).
func (m *Model) Value(s combin.Set) float64 {
	if s.IsEmpty() {
		return 0
	}
	if m.Overlap == nil {
		// Disjoint coverage: build only the pool, skipping poolFor's
		// per-class ownership attribution, which Value never reads.
		return m.valuePool(func(p *replicaPool) {
			for i := range m.Facilities {
				if s.Contains(i) {
					p.add(&m.Facilities[i], 1)
				}
			}
		})
	}
	p := m.poolFor(s)
	res := m.solve(p.pool)
	return m.muFactor() * res.Utility
}

// replicaPool is a utility-only allocation pool under construction. It
// holds one class per run of adjacent replicas — facilities with equal
// location counts and per-location capacity — so c replicas of a template
// with L locations of capacity R are the single class {c·L, R}. Every
// engine reads such a pool only through its location list (the analytic
// and fast engines through Σ Count_c·min(⌊R_c/r⌋, m), the greedy engine
// through the locations in class order, never their class index), so the
// merge leaves Utility and X bit-identical while a templated federation's
// pool shrinks from one class per facility to one per template.
// Attribution (poolFor, solve) keeps one class per facility.
type replicaPool struct {
	classes []allocation.Class
	last    *Facility // a facility whose replicas the last class holds
}

// add appends the locations of `replicas` copies of facility f.
func (p *replicaPool) add(f *Facility, replicas int) {
	if f.Locations == 0 || replicas == 0 {
		return
	}
	count, capacity := replicas*f.Locations, f.EffectiveCapacity()
	if n := len(p.classes); n > 0 && p.last.Locations == f.Locations && p.classes[n-1].Capacity == capacity {
		p.classes[n-1].Count += count
		return
	}
	p.classes = append(p.classes, allocation.Class{Label: f.Name, Count: count, Capacity: capacity})
	p.last = f
}

// replicaPools recycles the pools valuePool builds.
var replicaPools = sync.Pool{New: func() any { return new(replicaPool) }}

// valuePool is the shared tail of the utility-only characteristic
// functions (Value on disjoint models, ValueMembers, the collapsed class
// game): build adds the coalition's facilities to a recycled pool, which
// is solved through the allocation memo. The solver and the memo read the
// class slice by value and never retain it.
func (m *Model) valuePool(build func(p *replicaPool)) float64 {
	p := replicaPools.Get().(*replicaPool)
	p.classes, p.last = p.classes[:0], nil
	build(p)
	res := allocation.SolveCached(allocation.Pool{Classes: p.classes}, m.requests())
	replicaPools.Put(p)
	return m.muFactor() * res.Utility
}

// ValueMembers is the characteristic function over an explicit member list
// — the large-n tier of the federation game (coalition.MemberGame). It is
// exactly Value(S) for the coalition S listing the given facilities, but
// free of the 64-facility bitmask bound; the sampling Shapley engines walk
// permutation prefixes through it. Disjoint-coverage models build the pool
// straight from the member list, one class per run of adjacent replicas
// (replicaPool); overlap models — which NewModel and WithOverlap keep
// within the bitmask bound — route through Value.
func (m *Model) ValueMembers(members []int) float64 {
	if len(members) == 0 {
		return 0
	}
	if m.Overlap != nil {
		var s combin.Set
		for _, i := range members {
			s = s.With(i)
		}
		return m.Value(s)
	}
	return m.valuePool(func(p *replicaPool) {
		for _, i := range members {
			p.add(&m.Facilities[i], 1)
		}
	})
}

// classSignature is the interchangeability key of a facility: two
// facilities with equal signatures contribute identically to every
// coalition value, so they are symmetric players of the federation game.
// Name and Users are deliberately excluded — the unweighted game's V(S)
// never reads them.
type classSignature struct {
	locations    int
	resources    float64
	availability float64
	cost         economics.Cost
}

// ClassStructure detects the model's interchangeable-facility structure for
// the symmetry-collapsing Shapley engines (coalition.ClassStructured). It
// returns nil for overlap models: there, facilities with equal parameters
// still cover different concrete locations, so they are not symmetric. The
// collapsed characteristic function builds one pool class per template —
// c replicas with L locations of capacity R are the single class {c·L, R}
// (replicaPool; adjacent templates that differ only in fields the value
// never reads, such as cost, share one) — so its memo key and solve cost
// scale with the template count, not the facility count. The pool, and with it the value, is
// identical to ValueMembers over the same replicas listed template by
// template.
func (m *Model) ClassStructure() *coalition.ClassStructure {
	if m.Overlap != nil {
		return nil
	}
	classIdx := map[classSignature]int{}
	classOf := make([]int, m.N())
	var mult []int
	var reps []int // representative facility per class
	for i, f := range m.Facilities {
		sig := classSignature{
			locations:    f.Locations,
			resources:    f.Resources,
			availability: f.availability(),
			cost:         f.Cost,
		}
		j, ok := classIdx[sig]
		if !ok {
			j = len(mult)
			classIdx[sig] = j
			mult = append(mult, 0)
			reps = append(reps, i)
		}
		classOf[i] = j
		mult[j]++
	}
	return &coalition.ClassStructure{
		Mult:    mult,
		ClassOf: classOf,
		Value: func(counts []int) float64 {
			return m.valuePool(func(p *replicaPool) {
				for j, c := range counts {
					p.add(&m.Facilities[reps[j]], c)
				}
			})
		},
	}
}

// solve runs the allocation engine for a coalition pool. Disjoint-coverage
// models (every numerical figure) go through the process-wide aggregate-
// keyed memo: their V(S) depends only on the class multiset plus the
// demand, so symmetric coalitions and repeated pools across sweep points
// collapse to one solve. Overlap models are deliberately not memoized —
// the signature would conflate distinct cover structures' attribution, so
// they are treated as uncacheable and always solve directly.
func (m *Model) solve(pool allocation.Pool) *allocation.Result {
	if m.Overlap == nil {
		return allocation.SolveCached(pool, m.requests())
	}
	return allocation.Solve(pool, m.requests())
}

// Game returns the memoized coalitional game over the facilities. The
// cache is safe for concurrent Value calls (Value is a pure function of
// the model and the allocation solver is stateless), so the parallel
// engines — ParallelShapley, SnapshotParallel — can evaluate coalition
// allocations concurrently without a prior full snapshot. The lazy init is
// mutex-guarded, so concurrent sweep workers sharing a model cannot race
// to build it.
func (m *Model) Game() *coalition.SafeCache {
	if m.N() > combin.MaxPlayers {
		panic(fmt.Sprintf("core: the bitmask game is limited to %d facilities, have %d; use ValueMembers/coalition.Values",
			combin.MaxPlayers, m.N()))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.game == nil {
		m.game = coalition.NewSafeCache(coalition.Func{Players: m.N(), V: m.Value})
	}
	return m.game
}

// Table returns the model's dense coalition-value table, materialized once
// (2^n Value evaluations on first call). Value is safe for concurrent calls,
// so unlike Game() no locking wrapper sits between the exact engines and
// the characteristic function — for the figure sweeps' small models this
// skips a SafeCache allocation and a mutex acquisition per coalition. It
// errors for models too large to snapshot; use Game() then.
func (m *Model) Table() (*coalition.Table, error) {
	if m.N() > combin.MaxPlayers {
		return nil, fmt.Errorf("core: %d facilities exceed the %d-player snapshot bound", m.N(), combin.MaxPlayers)
	}
	// Warm the request cache first: Value calls requests(), whose slow
	// path takes m.mu, and the snapshot below runs with m.mu held.
	m.requests()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.table == nil {
		t, err := coalition.Snapshot(coalition.Func{Players: m.N(), V: m.Value})
		if err != nil {
			return nil, err
		}
		m.table = t
	}
	return m.table, nil
}

// GrandValue is V(N). It reads the dense table when one has been
// materialized and otherwise evaluates through the lazy game cache, so
// callers needing only V(N) never pay for a full snapshot.
func (m *Model) GrandValue() float64 {
	n := m.N()
	if n > combin.MaxPlayers {
		// Beyond the bitmask bound: one member-list evaluation (the
		// allocation memo caches the repeat calls).
		members := make([]int, n)
		for i := range members {
			members[i] = i
		}
		return m.ValueMembers(members)
	}
	m.mu.Lock()
	t := m.table
	m.mu.Unlock()
	if t != nil {
		return t.Value(combin.Full(n))
	}
	return m.Game().Value(combin.Full(n))
}

// ConsumptionByFacility solves the grand-coalition allocation and attributes
// consumed resource units to facilities (the numerator of ρ̂, eq. (7)).
func (m *Model) ConsumptionByFacility() []float64 {
	p := m.grandPool()
	res := m.solve(p.pool)
	out := make([]float64, m.N())
	for c, consumed := range res.ConsumedByClass {
		for _, ow := range p.owners[c] {
			out[ow.facility] += consumed * ow.frac
		}
	}
	return out
}

// grandPool builds the grand coalition's pooling. Disjoint models beyond
// the bitmask bound assemble it directly from the facility list; everything
// else goes through poolFor.
func (m *Model) grandPool() pooling {
	if m.Overlap != nil || m.N() <= combin.MaxPlayers {
		return m.poolFor(combin.Full(m.N()))
	}
	var p pooling
	for i, f := range m.Facilities {
		if f.Locations == 0 {
			continue
		}
		p.pool.Classes = append(p.pool.Classes, allocation.Class{
			Label:    f.Name,
			Count:    f.Locations,
			Capacity: f.EffectiveCapacity(),
		})
		p.owners = append(p.owners, []ownerWeight{{facility: i, frac: 1}})
	}
	return p
}

// Invalidate drops the memoized game and request expansion (call after
// mutating the model).
func (m *Model) Invalidate() {
	m.mu.Lock()
	m.game = nil
	m.table = nil
	m.reqs.Store(nil)
	m.mu.Unlock()
}

// CloneWith returns a copy of the model sharing the (read-only) demand and
// overlap structure, with mutate applied to the copy's facilities. It is
// the provision-sweep building block: each sweep point gets a private
// model, so points evaluate concurrently without racing on the game cache.
func (m *Model) CloneWith(mutate func(facilities []Facility)) *Model {
	fs := append([]Facility(nil), m.Facilities...)
	if mutate != nil {
		mutate(fs)
	}
	return &Model{Facilities: fs, Demand: m.Demand, Mu: m.Mu, Overlap: m.Overlap}
}
