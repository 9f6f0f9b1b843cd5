package main

// The sweep workloads: a closed loop of seeded experiments submitted one
// at a time to an in-process scenario engine (the layer fedsim and the
// fedd experiment API share).

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"fedshare/internal/allocation"
	"fedshare/internal/coalition"
	"fedshare/internal/core"
	"fedshare/internal/obs"
	"fedshare/internal/scenario"
	"fedshare/internal/scenario/engine"
)

// specsPerSecond bounds how many experiments a workload can finish per
// measured second; set-up generates that many per second of the run.
var specsPerSecond = map[string]int{wlSweepLarge: 30, wlSweepShapes: 40}

// ciChecks is how many sampled experiments per phase are re-solved to
// confirm they met their CI target.
const ciChecks = 2

// experiment is one finished run of the closed loop.
type experiment struct {
	spec    *scenario.Spec
	latency time.Duration // submit to result
	queue   time.Duration // submit to start
	exec    time.Duration // start to finish
	points  int
	json    []byte
}

// sweepPhase is one measured pass of the closed loop.
type sweepPhase struct {
	exps    []experiment
	elapsed time.Duration
	// probes are the host-speed probes taken between experiments.
	probes []time.Duration
	failures
	profile []byte
	rt      [2]runtimeSample
	memo    [2]allocation.MemoStats
	prefix  [2][2]int64 // steps, fallbacks
	samples [2]float64
	evals   [2]float64
	model   [2][2]float64 // scenario.run span sum, count
}

// setupSweep generates and parses the run's experiment specs.
func setupSweep(cfg config) ([]*scenario.Spec, error) {
	n := specsPerSecond[cfg.workload] * int(math.Ceil(cfg.seconds))
	docs, err := genSweepSpecs(cfg.workload, cfg.seed, n)
	if err != nil {
		return nil, err
	}
	specs := make([]*scenario.Spec, len(docs))
	for i, d := range docs {
		s, err := scenario.ParseSpec(d)
		if err != nil {
			return nil, fmt.Errorf("generated spec %d: %w", i, err)
		}
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("generated spec %d: %w", i, err)
		}
		specs[i] = s
	}
	return specs, nil
}

// readCompute snapshots the compute-path counters into slot i.
func (p *sweepPhase) readCompute(i int) {
	p.memo[i] = allocation.DefaultMemo.Stats()
	p.prefix[i][0], p.prefix[i][1] = allocation.PrefixCounters()
	snap := obs.Default.Snapshot()
	p.samples[i], _ = familyTotal(snap, "fedshare_shapley_samples_total", "", "")
	p.evals[i], _ = familyTotal(snap, "fedshare_coalition_cache_evaluations_total", "", "")
	for _, f := range snap.Families {
		if f.Name != "fedshare_span_seconds" {
			continue
		}
		for _, m := range f.Metrics {
			if m.Labels["span"] == "scenario.run" {
				p.model[i] = [2]float64{m.Sum, float64(m.Count)}
			}
		}
	}
}

// runSweepPhase runs the closed loop over specs on a fresh engine and an
// empty allocation memo (a new serving process) for the given duration,
// rounded up to whole cycles of experiment families. The memo is never
// reset between experiments.
func runSweepPhase(specs []*scenario.Spec, cycle int, dur time.Duration, traced bool) (*sweepPhase, error) {
	allocation.DefaultMemo.Reset()
	eng := engine.New(engine.Options{MaxConcurrent: 1})
	defer eng.Close()
	p := &sweepPhase{}
	var prof bytes.Buffer
	if traced {
		p.rt[0] = readRuntime()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	p.readCompute(0)
	start := time.Now()
	deadline := start.Add(dur)
	var probed time.Time
	for i := 0; i%cycle != 0 || time.Now().Before(deadline); i++ {
		if time.Since(probed) >= probeEvery {
			p.probes = append(p.probes, probeHost())
			probed = time.Now()
		}
		if i >= len(specs) {
			return nil, fmt.Errorf("generated experiments exhausted after %d", i)
		}
		t0 := time.Now()
		id, err := eng.Submit(specs[i])
		if err != nil {
			p.fail("submit %s: %v", specs[i].ID, err)
			continue
		}
		run, err := eng.Wait(context.Background(), id)
		lat := time.Since(t0)
		if err != nil || run.State != engine.StateDone {
			p.fail("experiment %s: state %s: %v %s", specs[i].ID, run.State, err, run.Error)
			continue
		}
		js, err := run.Result.JSON()
		if err != nil {
			p.fail("%v", err)
			continue
		}
		p.exps = append(p.exps, experiment{
			spec: specs[i], latency: lat, queue: run.Started.Sub(run.Submitted),
			exec: run.Finished.Sub(run.Started), points: run.Progress.Total, json: js,
		})
		if err := checkResult(run.Result, len(specs[i].Policies), facilityCounts(specs[i])); err != nil {
			p.fail("%v", err)
		}
	}
	p.elapsed = time.Since(start)
	p.probes = append(p.probes, probeHost())
	p.readCompute(1)
	if traced {
		pprof.StopCPUProfile()
		p.rt[1] = readRuntime()
		p.profile = prof.Bytes()
	}
	checked := 0
	for _, e := range p.exps {
		if checked == ciChecks {
			break
		}
		if e.spec.Method == scenario.MethodApprox {
			if err := checkCITarget(e.spec); err != nil {
				p.fail("%v", err)
			}
			checked++
		}
	}
	return p, nil
}

// facilityCounts returns each facility entry's replica count.
func facilityCounts(s *scenario.Spec) []int {
	out := make([]int, len(s.Facilities))
	for i, f := range s.Facilities {
		out[i] = max(f.Count, 1)
	}
	return out
}

// checkCITarget re-solves a sampled experiment's last threshold point
// through the same estimator the scenario runs and verifies every
// facility's 95% CI half-width met the requested relative target.
func checkCITarget(s *scenario.Spec) error {
	at := *s
	at.Demand = append([]scenario.DemandSpec(nil), s.Demand...)
	x := s.Axis.Values[len(s.Axis.Values)-1]
	for i := range at.Demand {
		at.Demand[i].MinLocations = x
	}
	m, err := at.Model()
	if err != nil {
		return err
	}
	pol := core.ApproxShapleyPolicy{Samples: s.Samples, CITarget: s.CITarget, Seed: s.Seed, Method: coalition.MethodApprox}
	res, err := pol.Result(m)
	if err != nil {
		return fmt.Errorf("%s: re-solve: %w", s.ID, err)
	}
	return checkConverged(s.ID, res, s.CITarget*m.GrandValue())
}

// checkConverged verifies a sampled Shapley result reached its CI target:
// every facility's 95% half-width is at most limit.
func checkConverged(id string, res *coalition.ValueResult, limit float64) error {
	if !res.Converged {
		return fmt.Errorf("%s: sampler did not reach its CI target", id)
	}
	for i, h := range res.CIHalf {
		if h > limit*(1+1e-12) {
			return fmt.Errorf("%s: facility %d CI half-width %g exceeds %g", id, i, h, limit)
		}
	}
	return nil
}

// runSweep runs a sweep-* workload.
func runSweep(cfg config) (*report, error) {
	rep := newReport()
	var setups, setupProbes []time.Duration
	var specs []*scenario.Spec
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		setupProbes = append(setupProbes, probeHost())
		t0 := time.Now()
		s, err := setupSweep(cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
		specs = s
	}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	cycle := sweepCycle(cfg.workload)
	base, err := runSweepPhase(specs, cycle, dur, false)
	if err != nil {
		return nil, err
	}
	applySweepChecks(rep, base)
	if !cfg.trace {
		lat := make([]float64, len(base.exps))
		for i, e := range base.exps {
			lat[i] = float64(e.latency) / float64(time.Millisecond)
		}
		rep.setScaled(slowdown(base.probes, probeRef), pointsPerSecond(base, cycle), quantile(lat, 0.5), quantile(lat, 0.9))
		rep.setSetup(setups, slowdown(setupProbes, probeRef))
		fmt.Fprintf(os.Stderr, "fedbench: %d experiments, %d points in %.2fs\n", len(base.exps), totalPoints(base), base.elapsed.Seconds())
		return rep, nil
	}
	tp, err := runSweepPhase(specs, cycle, dur, true)
	if err != nil {
		return nil, err
	}
	applySweepChecks(rep, tp)
	for i := 0; i < min(len(base.exps), len(tp.exps)); i++ {
		if err := checkSameJSON(base.exps[i].spec.ID, base.exps[i].json, tp.exps[i].json); err != nil {
			rep.fail("%v", err)
		}
	}
	setSweepLayers(rep, base, tp, cycle)
	return rep, nil
}

// applySweepChecks folds a phase's outcome into the report.
func applySweepChecks(rep *report, p *sweepPhase) {
	rep.attempted += int64(len(p.exps)) + p.failed
	rep.add(p.failures)
}

func totalPoints(p *sweepPhase) int {
	n := 0
	for _, e := range p.exps {
		n += e.points
	}
	return n
}

// pointsPerSecond is the median over the phase's family cycles of the
// model-evaluation points completed per second.
func pointsPerSecond(p *sweepPhase, cycle int) float64 {
	var rates []float64
	for i := 0; i+cycle <= len(p.exps); i += cycle {
		points, d := 0, time.Duration(0)
		for _, e := range p.exps[i : i+cycle] {
			points += e.points
			d += e.latency
		}
		rates = append(rates, float64(points)/d.Seconds())
	}
	return median(rates)
}

// setSweepLayers reports the traced phase's per-layer metrics, plus the
// untraced phase's throughput and latency for comparison.
func setSweepLayers(rep *report, base, p *sweepPhase, cycle int) {
	points := float64(totalPoints(p))
	var queue, exec time.Duration
	for _, e := range p.exps {
		queue += e.queue
		exec += e.exec
	}
	var lat []float64
	for _, e := range base.exps {
		lat = append(lat, e.latency.Seconds())
	}
	n := float64(len(p.exps))
	rep.set("engine.queue_ms", float64(queue.Milliseconds())/n)
	rep.set("engine.exec_ms", float64(exec.Milliseconds())/n)
	modelMs := 0.0
	if runs := p.model[1][1] - p.model[0][1]; runs > 0 {
		modelMs = 1000 * (p.model[1][0] - p.model[0][0]) / runs
	}
	rep.set("scenario.model_ms", modelMs)

	hits := float64(p.memo[1].Hits - p.memo[0].Hits)
	misses := float64(p.memo[1].Misses - p.memo[0].Misses)
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	rep.set("allocation.solves_per_point", (hits+misses)/points)
	rep.set("allocation.memo_hit_ratio", ratio)
	rep.set("allocation.memo_entries", float64(p.memo[1].Entries))
	steps := float64(p.prefix[1][0] - p.prefix[0][0])
	fallbacks := float64(p.prefix[1][1] - p.prefix[0][1])
	rep.set("allocation.prefix_steps_per_point", steps/points)
	fb := 0.0
	if steps > 0 {
		fb = fallbacks / steps
	}
	rep.set("allocation.prefix_fallback_ratio", fb)
	rep.set("coalition.samples_per_point", (p.samples[1]-p.samples[0])/points)
	rep.set("coalition.evaluations_per_point", (p.evals[1]-p.evals[0])/points)

	rep.set("points_per_s", pointsPerSecond(base, cycle))
	rep.set("experiment_p50_s", quantile(lat, 0.5))
	errRatio := 0.0
	if n := float64(len(base.exps)) + float64(base.failed); n > 0 {
		errRatio = float64(base.failed) / n
	}
	rep.set("error_ratio", errRatio)
	rep.set("trace.overhead_ratio", pointsPerSecond(p, cycle)*slowdown(p.probes, probeRef)/(pointsPerSecond(base, cycle)*slowdown(base.probes, probeRef)))
	setRuntimeMetrics(rep, p.rt[0], p.rt[1], points)
	setCPUShares(rep, p.profile)
}
