package coalition

import (
	"fmt"
	"runtime"
)

// Method selects how Values computes the share vector.
type Method string

const (
	// MethodAuto picks the cheapest engine that fits the game: exact
	// lattice kernel when the game is snapshot-eligible, exact symmetry
	// collapse when the collapsed state space is small, sampled collapse
	// otherwise, plain sampling when there is no structure to exploit.
	MethodAuto Method = "auto"
	// MethodExact requires an exact engine (kernel or collapsed lattice)
	// and errors when neither is feasible.
	MethodExact Method = "exact"
	// MethodApprox forces the sampling estimator (composed with symmetry
	// collapse when structure is available).
	MethodApprox Method = "approx"
)

// Engine names reported in ValueResult.Method.
const (
	EngineKernel          = "exact-kernel"
	EngineExactCollapsed  = "exact-collapsed"
	EngineApproxCollapsed = "approx-collapsed"
	EngineApprox          = "approx"
)

// DefaultApproxSamples is the permutation budget used when the sampler is
// dispatched with neither a budget nor a CI target.
const DefaultApproxSamples = 2000

// Options configures the Values dispatcher.
type Options struct {
	// Method picks the engine family; empty means MethodAuto.
	Method Method
	// Workers bounds parallelism in every engine; 0 means GOMAXPROCS.
	Workers int
	// Samples is the sampling permutation budget (see ApproxOptions).
	Samples int
	// CITarget is the absolute adaptive 95% CI half-width target for the
	// sampling engines.
	CITarget float64
	// Seed selects the deterministic sample stream.
	Seed uint64
	// Structure, when non-nil, supplies the interchangeable-player
	// partition; otherwise Values asks the game itself via the
	// ClassStructured interface.
	Structure *ClassStructure
	// NoIncremental disables the incremental prefix-evaluation path in
	// the sampling engines (bit-identical results either way; see
	// ApproxOptions.NoIncremental).
	NoIncremental bool
}

// ClassStructured is implemented by games that can expose their
// interchangeable-player structure (core.Model does). A nil return means
// no usable structure.
type ClassStructured interface {
	ClassStructure() *ClassStructure
}

// ValueResult is a share computation with its provenance: which engine
// ran, and — for sampled engines — how uncertain the estimate is.
type ValueResult struct {
	// Phi is the (estimated or exact) Shapley value per player.
	Phi []float64
	// CIHalf is the per-player 95% confidence half-width; nil for the
	// exact engines.
	CIHalf []float64
	// Samples is the number of permutations evaluated (0 for exact).
	Samples int
	// Method names the engine that produced Phi (Engine* constants).
	Method string
	// Converged reports whether a requested CI target was met (always
	// true for exact engines and fixed sampling budgets).
	Converged bool
}

// Values computes Shapley values through the engine the game's size and
// structure call for. This is the single entry point the model, scenario,
// and figure layers use: a 3-facility paper figure and a 500-facility
// federation take the same call and differ only in which engine answers.
func Values(g MemberGame, opt Options) (*ValueResult, error) {
	n := g.N()
	if n == 0 {
		return &ValueResult{Method: EngineKernel, Converged: true}, nil
	}
	method := opt.Method
	if method == "" {
		method = MethodAuto
	}
	switch method {
	case MethodAuto, MethodExact, MethodApprox:
	default:
		return nil, fmt.Errorf("coalition: unknown method %q", opt.Method)
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Exact lattice kernel: the fastest engine whenever the 2^n table
	// fits. The game must additionally implement the bitmask interface.
	if method != MethodApprox && n <= snapshotMaxPlayers {
		if bg, ok := g.(Game); ok {
			if b, err := ParallelBatched(bg, workers); err == nil {
				return &ValueResult{Phi: b.Shapley, Method: EngineKernel, Converged: true}, nil
			}
		}
	}

	st := opt.Structure
	if st == nil {
		if cs, ok := g.(ClassStructured); ok {
			st = cs.ClassStructure()
		}
	}
	if st != nil {
		if err := st.Validate(); err != nil {
			return nil, err
		}
		// A partition that does not actually collapse anything buys no
		// exact feasibility and no pooling; treat it as unstructured.
		if st.K() >= n {
			st = nil
		}
	}

	if st != nil && method != MethodApprox && st.States() <= exactClassMaxStates {
		phi, err := ExactShapley(st)
		if err != nil {
			return nil, err
		}
		return &ValueResult{Phi: phi, Method: EngineExactCollapsed, Converged: true}, nil
	}
	if method == MethodExact {
		states := "no class structure"
		if st != nil {
			states = fmt.Sprintf("collapsed state space %.3g", st.States())
		}
		return nil, fmt.Errorf("coalition: no exact engine for %d players (%s); use method approx", n, states)
	}

	aopt := ApproxOptions{
		Samples: opt.Samples, CITarget: opt.CITarget,
		Workers: opt.Workers, Seed: opt.Seed,
		NoIncremental: opt.NoIncremental,
	}
	if aopt.Samples == 0 && aopt.CITarget == 0 {
		aopt.Samples = DefaultApproxSamples
	}
	target, engine := g, EngineApprox
	if st != nil {
		target, engine = st.MemberGame(), EngineApproxCollapsed
		aopt.Groups = st.Groups()
	}
	res, err := ApproxShapley(target, aopt)
	if err != nil {
		return nil, err
	}
	return &ValueResult{
		Phi: res.Phi, CIHalf: res.CIHalf, Samples: res.Samples,
		Method: engine, Converged: res.Converged,
	}, nil
}
