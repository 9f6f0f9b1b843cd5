package coalition

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"sync"
)

// Symmetry collapse.
//
// Facilities with identical contribution signatures are interchangeable
// players: V(S) depends only on HOW MANY members of each class S contains,
// not on which ones. A game over n players partitioned into k classes with
// multiplicities m_1..m_k therefore collapses to a game over count vectors
// c ∈ Π[0, m_j] — a state space of Π(m_j+1) values instead of 2^n. For a
// 200-facility federation drawn from 8 facility classes that is ~10^10×
// fewer states than the coalition lattice, and because symmetric players
// provably receive equal Shapley values, per-class shares split equally
// within a class with no further error.
//
// Two engines run on the collapsed game: ExactShapley enumerates the count
// lattice with closed-form ordering probabilities (exact, feasible when
// Π(m_j+1) is modest), and MemberGame adapts it for ApproxShapley with a
// concurrent count-vector memo, composing collapse with sampling when the
// state space is still too large.

// ClassStructure describes the interchangeable-player structure of a game:
// a partition of the players into classes plus the class-level
// characteristic function.
type ClassStructure struct {
	// Mult is the class multiplicity vector; Σ Mult = N.
	Mult []int
	// ClassOf maps each player to its class index.
	ClassOf []int
	// Value returns V for the coalition containing counts[j] members of
	// class j (any counts[j] members — the classes are interchangeable).
	// It must be safe for concurrent calls, return 0 for the zero vector,
	// and must not retain the slice.
	Value func(counts []int) float64
}

// Validate checks the partition's internal consistency.
func (cs *ClassStructure) Validate() error {
	if cs.Value == nil {
		return fmt.Errorf("coalition: class structure has no value function")
	}
	total := 0
	for j, m := range cs.Mult {
		if m <= 0 {
			return fmt.Errorf("coalition: class %d has non-positive multiplicity %d", j, m)
		}
		if m > math.MaxUint16 {
			// classMemberGame keys its memo on uint16 counts; a larger
			// count would alias another count vector's entry.
			return fmt.Errorf("coalition: class %d multiplicity %d exceeds %d", j, m, math.MaxUint16)
		}
		total += m
	}
	if total != len(cs.ClassOf) {
		return fmt.Errorf("coalition: multiplicities sum to %d, have %d players", total, len(cs.ClassOf))
	}
	seen := make([]int, len(cs.Mult))
	for p, j := range cs.ClassOf {
		if j < 0 || j >= len(cs.Mult) {
			return fmt.Errorf("coalition: player %d assigned to unknown class %d", p, j)
		}
		seen[j]++
	}
	for j := range seen {
		if seen[j] != cs.Mult[j] {
			return fmt.Errorf("coalition: class %d has %d assigned players, multiplicity %d", j, seen[j], cs.Mult[j])
		}
	}
	return nil
}

// N returns the player count.
func (cs *ClassStructure) N() int { return len(cs.ClassOf) }

// K returns the class count.
func (cs *ClassStructure) K() int { return len(cs.Mult) }

// States returns the collapsed state-space size Π(m_j+1) as a float (it
// overflows int64 long before the exact engine becomes feasible anyway).
func (cs *ClassStructure) States() float64 {
	states := 1.0
	for _, m := range cs.Mult {
		states *= float64(m + 1)
	}
	return states
}

// Groups returns the classes as player-index groups, ready for
// ApproxOptions.Groups pooling.
func (cs *ClassStructure) Groups() [][]int {
	out := make([][]int, cs.K())
	for p, j := range cs.ClassOf {
		out[j] = append(out[j], p)
	}
	return out
}

// exactClassMaxStates bounds the count lattices ExactShapley will
// enumerate: 2^21 states × 8 bytes is a 16 MiB value table, and every
// state costs one characteristic-function evaluation.
const exactClassMaxStates = 1 << 21

// ExactShapley computes the exact Shapley value of every player over the
// collapsed game by dynamic enumeration of the count lattice.
//
// For a player p of class j, the coalition S preceding p in a uniform
// random ordering enters φ_p only through its class composition c, and the
// number of such coalitions is Π_i C(m_i − δ_ij, c_i), so
//
//	φ_p = Σ_c  w[|c|] · Π_i C(m_i − δ_ij, c_i) · (V(c+e_j) − V(c))
//
// with w the usual ordering weights s!(n−s−1)!/n!. The products are
// evaluated in log space (overflow-safe for any n) as the multivariate
// hypergeometric mass Π C(m_i−δ_ij, c_i)/C(n−1, |c|) scaled by 1/n. It
// errors when the state space exceeds exactClassMaxStates; compose the
// collapse with ApproxShapley then.
func ExactShapley(cs *ClassStructure) ([]float64, error) {
	if err := cs.Validate(); err != nil {
		return nil, err
	}
	n, k := cs.N(), cs.K()
	if n == 0 {
		return nil, nil
	}
	statesF := cs.States()
	if statesF > exactClassMaxStates {
		return nil, fmt.Errorf("coalition: collapsed state space has %.3g states, exact limit %d", statesF, exactClassMaxStates)
	}
	states := int(statesF)

	// Mixed-radix layout: state index idx(c) = Σ c_j · stride_j.
	stride := make([]int, k)
	s := 1
	for j := 0; j < k; j++ {
		stride[j] = s
		s *= cs.Mult[j] + 1
	}

	// Materialize V over the count lattice.
	table := make([]float64, states)
	counts := make([]int, k)
	for idx := 0; idx < states; idx++ {
		table[idx] = cs.Value(counts)
		odometer(counts, cs.Mult)
	}

	// ln C(a, b) via a lnΓ-backed factorial table; relative error ~1e-14,
	// far inside the exact engines' cross-check tolerance.
	lf := make([]float64, n+1)
	for i := 2; i <= n; i++ {
		v, _ := math.Lgamma(float64(i + 1))
		lf[i] = v
	}
	lnC := func(a, b int) float64 { return lf[a] - lf[b] - lf[a-b] }
	lnN := math.Log(float64(n))

	phiClass := make([]float64, k)
	for j := range counts {
		counts[j] = 0
	}
	for idx := 0; idx < states; idx++ {
		card := 0
		logBase := 0.0 // Σ ln C(m_i, c_i)
		for i, c := range counts {
			card += c
			logBase += lnC(cs.Mult[i], c)
		}
		if card < n {
			lw := logBase - lnN - lnC(n-1, card)
			for j := 0; j < k; j++ {
				free := cs.Mult[j] - counts[j]
				if free == 0 {
					continue
				}
				// Restrict the base product to the fixed player's class:
				// C(m_j−1, c_j) = C(m_j, c_j)·(m_j−c_j)/m_j.
				coef := math.Exp(lw) * float64(free) / float64(cs.Mult[j])
				phiClass[j] += coef * (table[idx+stride[j]] - table[idx])
			}
		}
		odometer(counts, cs.Mult)
	}

	phi := make([]float64, n)
	for p, j := range cs.ClassOf {
		phi[p] = phiClass[j]
	}
	return phi, nil
}

// odometer advances a count vector to the next mixed-radix state.
func odometer(counts, mult []int) {
	for j := range counts {
		if counts[j] < mult[j] {
			counts[j]++
			return
		}
		counts[j] = 0
	}
}

// classMemoStripes is the lock striping of the collapsed-game value memo.
const classMemoStripes = 64

// classMemberGame adapts a ClassStructure to the MemberGame interface for
// the sampler: coalitions reduce to count vectors, and distinct count
// vectors are solved once through a striped concurrent memo. A sampled
// ordering of a 200-player game visits 200 prefixes, but across thousands
// of orderings those prefixes share a vastly smaller count-vector space,
// so most ValueMembers calls are O(k) lookups rather than solves.
type classMemberGame struct {
	cs     *ClassStructure
	seed   maphash.Seed
	mus    [classMemoStripes]sync.Mutex
	tables [classMemoStripes]map[string]float64
}

// MemberGame returns the collapsed game as a sampler-ready MemberGame with
// a fresh value memo. The structure must pass Validate.
func (cs *ClassStructure) MemberGame() MemberGame {
	g := &classMemberGame{cs: cs, seed: maphash.MakeSeed()}
	for i := range g.tables {
		g.tables[i] = map[string]float64{}
	}
	return g
}

// N implements MemberGame.
func (g *classMemberGame) N() int { return g.cs.N() }

// ValueMembers implements MemberGame.
func (g *classMemberGame) ValueMembers(members []int) float64 {
	k := g.cs.K()
	counts := make([]int, k)
	for _, p := range members {
		counts[g.cs.ClassOf[p]]++
	}
	return g.valueCounts(counts, make([]byte, 2*k))
}

// PrefixValuer implements PrefixGame: the walker's coalition reduces to a
// count vector maintained incrementally, so each prefix step is one O(k)
// memo probe with no per-member scan. The valuer shares the game's striped
// memo, so incremental and ValueMembers evaluations return the same cached
// floats bit-for-bit.
func (g *classMemberGame) PrefixValuer() PrefixValuer {
	k := g.cs.K()
	return &classPrefixValuer{g: g, counts: make([]int, k), key: make([]byte, 2*k)}
}

// classPrefixValuer is the incremental walker state over one count vector.
type classPrefixValuer struct {
	g      *classMemberGame
	counts []int
	key    []byte
}

// Reset implements PrefixValuer.
func (v *classPrefixValuer) Reset() {
	for j := range v.counts {
		v.counts[j] = 0
	}
}

// Extend implements PrefixValuer.
func (v *classPrefixValuer) Extend(p int) float64 {
	v.counts[v.g.cs.ClassOf[p]]++
	return v.g.valueCounts(v.counts, v.key)
}

// valueCounts returns the collapsed game's value for a count vector
// through the striped memo; key is a caller-provided 2·K-byte scratch.
// Counts fit the uint16 encoding because Validate bounds every
// multiplicity.
func (g *classMemberGame) valueCounts(counts []int, key []byte) float64 {
	for j, c := range counts {
		binary.LittleEndian.PutUint16(key[2*j:], uint16(c))
	}
	stripe := maphash.Bytes(g.seed, key) & (classMemoStripes - 1)
	mu, table := &g.mus[stripe], g.tables[stripe]
	ks := string(key)
	mu.Lock()
	if v, ok := table[ks]; ok {
		mu.Unlock()
		return v
	}
	mu.Unlock()
	// Solve outside the stripe lock: distinct vectors in one stripe can
	// evaluate concurrently, and Value is required to be pure.
	v := g.cs.Value(counts)
	mu.Lock()
	table[ks] = v
	mu.Unlock()
	return v
}
