// Command fedbench is fedshare's benchmark. It runs one seeded workload
// over the federation path (sfa client → wire → handler → WAL → peer
// fan-out) or the compute path (scenario engine → core policy → coalition
// engine → allocation), checks every output, and prints the end-to-end
// metrics — or, with -trace 1, the per-layer metrics — as the last line of
// standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Every layer is measured from outside the program, through its public
// seams: wrapped peer and client connections, a timing Store decorator,
// each daemon's metrics registry, the allocation memo and prefix counters,
// the engine's run timestamps, and a CPU profile grouped by package.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash fedbench/run.sh --workload fed-mixed-memory --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"syscall"
	"time"
)

// Workload names.
const (
	wlFedDurable  = "fed-slices-durable"
	wlFedMixed    = "fed-mixed-memory"
	wlSweepLarge  = "sweep-large"
	wlSweepShapes = "sweep-shapes"
)

var workloads = []string{wlFedDurable, wlFedMixed, wlSweepLarge, wlSweepShapes}

// setupRepeats is how many times each run performs its set-up; setup_s is
// the median, which keeps one slow directory creation or listen from
// setting the figure.
const setupRepeats = 31

// windows is how many equal slices of a measured phase the throughput and
// latency figures are taken over; reporting the median slice keeps a
// transient stall (a GC cycle, a slow fsync, a busy neighbour) from
// setting the figure.
const windows = 10

// endToEnd and perLayer name every reported metric with its unit, as
// BENCHMARK.json lists them (metrics_test.go keeps the two in step). A
// traced run reports every per-layer metric; those a workload does not
// exercise read 0.
var endToEnd = map[string]string{"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms", "max_rss_mb": "MB", "setup_s": "s"}

var perLayer = map[string]string{
	"sfa.peer.rtt_p50_ms":               "ms",
	"sfa.peer.calls_per_op":             "count/op",
	"sfa.peer.conn_busy":                "ratio",
	"sfa.store.append_p50_ms":           "ms",
	"sfa.store.append_p90_ms":           "ms",
	"sfa.store.appends_per_op":          "count/op",
	"sfa.store.snapshot_ms":             "ms",
	"wal.fsync_p50_ms":                  "ms",
	"wal.fsyncs_per_append":             "ratio",
	"sfa.wire.encode_us":                "us",
	"sfa.wire.decode_us":                "us",
	"sfa.wire.bytes_per_op":             "B/op",
	"sfa.server.self_ms.create_slice":   "ms",
	"sfa.server.self_ms.delete_slice":   "ms",
	"sfa.server.self_ms.reserve":        "ms",
	"sfa.server.self_ms.release":        "ms",
	"sfa.server.self_ms.get_shares":     "ms",
	"sfa.server.self_ms.list_resources": "ms",
	"core.shares_ms":                    "ms",
	"fed.unattributed_ms":               "ms",
	"sfa.client.retries":                "count",
	"sfa.client.shed":                   "count",
	"sfa.server.dedup_replays":          "count",
	"engine.queue_ms":                   "ms",
	"engine.exec_ms":                    "ms",
	"scenario.model_ms":                 "ms",
	"allocation.solves_per_point":       "count/op",
	"allocation.memo_hit_ratio":         "ratio",
	"allocation.memo_entries":           "count",
	"allocation.prefix_steps_per_point": "count/op",
	"allocation.prefix_fallback_ratio":  "ratio",
	"coalition.samples_per_point":       "count/op",
	"coalition.evaluations_per_point":   "count/op",
	"cpu.allocation":                    "ratio",
	"cpu.coalition":                     "ratio",
	"cpu.core":                          "ratio",
	"cpu.scenario":                      "ratio",
	"cpu.sfa":                           "ratio",
	"cpu.wal":                           "ratio",
	"cpu.encoding_json":                 "ratio",
	"cpu.syscall":                       "ratio",
	"cpu.runtime":                       "ratio",
	"go.alloc_bytes_per_op":             "B/op",
	"go.gc_cpu_fraction":                "ratio",
	"trace.overhead_ratio":              "ratio",
	"write_p50_ms":                      "ms",
	"write_p90_ms":                      "ms",
	"read_p50_ms":                       "ms",
	"read_p90_ms":                       "ms",
	"p99_ms":                            "ms",
	"points_per_s":                      "1/s",
	"experiment_p50_s":                  "s",
	"error_ratio":                       "ratio",
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// failures counts failed or check-failing operations and keeps the first
// few descriptions.
type failures struct {
	failed   int64
	problems []string
}

// fail records one failure.
func (f *failures) fail(format string, args ...any) {
	f.failed++
	if len(f.problems) < 20 {
		f.problems = append(f.problems, fmt.Sprintf(format, args...))
	}
}

// add folds other's failures into f.
func (f *failures) add(other failures) {
	f.failed += other.failed
	for _, p := range other.problems {
		if len(f.problems) < 20 {
			f.problems = append(f.problems, p)
		}
	}
}

// report accumulates one run's outcome.
type report struct {
	failures
	attempted int64
	metrics   map[string]metric
	// unscaled holds the timing figures before scaling to the reference
	// host speed, and slowdown the measured phase's host slowdown (0 in a
	// traced run; see probe.go).
	unscaled map[string]float64
	slowdown float64
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, unscaled: map[string]float64{}}
}

// setScaled reports the end-to-end throughput and latency figures measured
// while the host ran slow times slower than the reference, scaled to the
// reference speed, and keeps the unscaled figures.
func (r *report) setScaled(slow, rate, p50, p90 float64) {
	r.slowdown = slow
	r.unscaled["ops_per_s"], r.unscaled["latency_p50_ms"], r.unscaled["latency_p90_ms"] = rate, p50, p90
	r.set("ops_per_s", rate*slow)
	r.set("latency_p50_ms", p50/slow)
	r.set("latency_p90_ms", p90/slow)
}

// setSetup reports the median set-up time, scaled by the host slowdown
// slow probed across the set-ups.
func (r *report) setSetup(setups []time.Duration, slow float64) {
	xs := make([]float64, len(setups))
	for i, d := range setups {
		xs[i] = d.Seconds()
	}
	raw := median(xs)
	r.unscaled["setup_s"] = raw
	r.set("setup_s", raw/slow)
}

// set records a metric under its unit from endToEnd or perLayer.
func (r *report) set(name string, v float64) {
	unit, ok := endToEnd[name]
	if !ok {
		unit, ok = perLayer[name]
	}
	if !ok {
		panic("fedbench: unlisted metric " + name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root: fingerprint source
	dir      string // scratch directory for WAL data
}

func main() {
	start := readCPUTimes()
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+fmt.Sprint(workloads))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds per phase")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics")
	flag.StringVar(&cfg.dir, "dir", ".bench_build", "scratch directory for WAL data")
	flag.Parse()
	cfg.seconds = float64(seconds)
	cfg.trace = trace == 1
	root, err := os.Getwd()
	if err != nil {
		die(err)
	}
	cfg.root = root
	if seconds <= 0 || (trace != 0 && trace != 1) {
		die(fmt.Errorf("need -seconds > 0 and -trace 0 or 1"))
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		die(err)
	}

	var rep *report
	switch cfg.workload {
	case wlFedDurable, wlFedMixed:
		rep, err = runFederation(cfg)
	case wlSweepLarge, wlSweepShapes:
		rep, err = runSweep(cfg)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloads)
	}
	if err != nil {
		die(err)
	}
	if cfg.trace {
		for name := range perLayer {
			if _, ok := rep.metrics[name]; !ok {
				rep.set(name, 0)
			}
		}
	} else {
		rep.set("max_rss_mb", maxRSSMB())
	}
	fp := fingerprint(cfg, start)
	if rep.slowdown != 0 {
		fp["host_slowdown"], fp["unscaled"] = rep.slowdown, rep.unscaled
	}
	emitLine(map[string]any{"fingerprint": fp})
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "fedbench: check failed:", p)
	}
	correct := len(rep.problems) == 0 && rep.failed == 0
	emitLine(map[string]any{
		"correct": correct, "attempted": rep.attempted, "failed": rep.failed, "metrics": rep.metrics,
	})
	if !correct {
		os.Exit(1)
	}
}

// emitLine prints v as one JSON line on standard output.
func emitLine(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		die(err)
	}
	fmt.Println(string(b))
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "fedbench:", err)
	os.Exit(2)
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
