package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"fedshare/internal/coalition"
	"fedshare/internal/obs"
	"fedshare/internal/scenario"
	"fedshare/internal/sfa"
	"fedshare/internal/stats"
)

func TestCheckSliceFiresOnTooFewSites(t *testing.T) {
	op := fedOp{Kind: opSlice, Name: "s", MinSites: 3}
	resp := &sfa.SliceResponse{Name: "s", Sites: 3, Slivers: []sfa.SliverRecord{
		{Authority: "PLC", SiteID: "a", NodeID: "n0"},
		{Authority: "PLE", SiteID: "b", NodeID: "n0"},
		{Authority: "PLJ", SiteID: "c", NodeID: "n0"},
	}}
	if err := checkSlice(op, resp); err != nil {
		t.Fatalf("valid slice rejected: %v", err)
	}
	resp.Slivers[2].Authority, resp.Slivers[2].SiteID = "PLE", "b" // a duplicate site
	if checkSlice(op, resp) == nil {
		t.Fatal("slice spanning 2 distinct sites passed a 3-site check")
	}
}

func TestCheckRenewFiresOnDifferentPlacement(t *testing.T) {
	first := &sfa.ReserveResponse{Slivers: []sfa.SliverRecord{{Authority: "PLC", SiteID: "a", NodeID: "n0"}}}
	same := &sfa.ReserveResponse{Slivers: append([]sfa.SliverRecord(nil), first.Slivers...)}
	if err := checkRenew("r", first, same); err != nil {
		t.Fatalf("replayed renew rejected: %v", err)
	}
	moved := &sfa.ReserveResponse{Slivers: []sfa.SliverRecord{{Authority: "PLC", SiteID: "a", NodeID: "n1"}}}
	if checkRenew("r", first, moved) == nil {
		t.Fatal("renew that placed again passed")
	}
	if checkRenew("r", &sfa.ReserveResponse{}, &sfa.ReserveResponse{}) == nil {
		t.Fatal("reserve that placed nothing passed")
	}
}

func TestCheckSharesFires(t *testing.T) {
	good := func() *sfa.SharesResponse {
		return &sfa.SharesResponse{Shares: map[string]float64{"PLC": 0.1, "PLE": 0.3, "PLJ": 0.6}}
	}
	if err := checkShares(good()); err != nil {
		t.Fatalf("valid shares rejected: %v", err)
	}
	bad := good()
	bad.Shares["PLJ"] = 0.61
	if checkShares(bad) == nil {
		t.Error("shares summing to 1.01 passed")
	}
	bad = good()
	bad.Shares["PLC"], bad.Shares["PLJ"] = -0.1, 0.8
	if checkShares(bad) == nil {
		t.Error("negative share passed")
	}
	bad = good()
	bad.Partial = true
	if checkShares(bad) == nil {
		t.Error("partial shares passed")
	}
}

func TestCheckFullCapacityFires(t *testing.T) {
	rl := &sfa.ResourceList{Authority: "PLC", Sites: []sfa.SiteResource{{SiteID: "a", Capacity: 8, Free: 8}}}
	if err := checkFullCapacity(rl); err != nil {
		t.Fatalf("idle substrate rejected: %v", err)
	}
	rl.Sites[0].Free = 7
	if checkFullCapacity(rl) == nil {
		t.Fatal("substrate still holding a sliver passed")
	}
}

// sharesResult builds a one-policy result over two facility entries.
func sharesResult(a, b float64) *scenario.Result {
	var s1, s2 stats.Series
	s1.Add(0, a)
	s2.Add(0, b)
	return &scenario.Result{ID: "r", Series: []stats.Series{s1, s2}}
}

func TestCheckResultFires(t *testing.T) {
	// Entry 1 has 3 replicas at mean 0.2, entry 2 one facility at 0.4.
	if err := checkResult(sharesResult(0.2, 0.4), 1, []int{3, 1}); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
	if checkResult(sharesResult(0.2, 0.41), 1, []int{3, 1}) == nil {
		t.Error("shares summing to 1.01 passed")
	}
	if checkResult(sharesResult(0.5, -0.5), 1, []int{3, 1}) == nil {
		t.Error("negative share passed")
	}
	if checkResult(sharesResult(0.2, 0.4), 2, []int{3, 1}) == nil {
		t.Error("result missing a policy's series passed")
	}
}

func TestCheckConvergedFires(t *testing.T) {
	res := &coalition.ValueResult{Phi: []float64{1, 2}, CIHalf: []float64{0.01, 0.02}, Converged: true}
	if err := checkConverged("r", res, 0.03); err != nil {
		t.Fatalf("converged result rejected: %v", err)
	}
	if checkConverged("r", res, 0.015) == nil {
		t.Error("half-width above the target passed")
	}
	res.Converged = false
	if checkConverged("r", res, 0.03) == nil {
		t.Error("unconverged result passed")
	}
}

func TestCheckSameJSONFires(t *testing.T) {
	if err := checkSameJSON("r", []byte("{}"), []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if checkSameJSON("r", []byte(`{"a":1}`), []byte(`{"a":2}`)) == nil {
		t.Fatal("differing results passed")
	}
}

// reserveCounters builds a registry snapshot holding an authority's
// Reserve request and dedup-replay counts.
func reserveCounters(requests, replays float64) obs.Snapshot {
	reserve := map[string]string{"method": sfa.MethodReserve}
	return obs.Snapshot{Families: []obs.FamilySnapshot{
		{Name: "fedshare_sfa_requests_total", Metrics: []obs.MetricSnapshot{{Labels: reserve, Value: requests}}},
		{Name: "fedshare_sfa_dedup_replays_total", Metrics: []obs.MetricSnapshot{{Labels: reserve, Value: replays}}},
	}}
}

func TestCheckPhaseFiresOnExactlyOnceViolation(t *testing.T) {
	// PLC ran 4 reserve lifecycles (4 executions + 4 renew replays); the
	// slices reserved twice at PLE and once at PLJ.
	phase := func() *fedPhase {
		load := newLoadResult()
		load.reservesAt = map[string]int64{"PLC": 4, "PLE": 2, "PLJ": 1}
		load.renews = 4
		zero := reserveCounters(0, 0)
		return &fedPhase{
			load:   load,
			before: []obs.Snapshot{zero, zero, zero},
			after:  []obs.Snapshot{reserveCounters(8, 4), reserveCounters(2, 0), reserveCounters(1, 0)},
		}
	}
	rep := newReport()
	checkPhase(phase(), rep)
	if rep.failed != 0 {
		t.Fatalf("consistent counters failed: %v", rep.problems)
	}
	p := phase()
	p.after[1] = reserveCounters(3, 0) // PLE executed one reserve twice
	rep = newReport()
	checkPhase(p, rep)
	if rep.failed == 0 {
		t.Error("double execution at PLE passed")
	}
	p = phase()
	p.after[0] = reserveCounters(8, 3) // a renew executed instead of replaying
	rep = newReport()
	checkPhase(p, rep)
	if rep.failed == 0 {
		t.Error("renew executed instead of replayed passed")
	}
}

func TestFrameScannerSplitsStream(t *testing.T) {
	var stream []byte
	var want [][]byte
	for _, payload := range []string{`{"id":1,"method":"sfa.Ping"}`, `{}`, `{"id":2,"method":"sfa.Reserve"}`} {
		frame := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
		frame = append(frame, payload...)
		want = append(want, frame)
		stream = append(stream, frame...)
	}
	for chunk := 1; chunk <= len(stream); chunk++ {
		var sc frameScanner
		var got [][]byte
		for i := 0; i < len(stream); i += chunk {
			got = append(got, sc.feed(stream[i:min(i+chunk, len(stream))])...)
		}
		if len(got) != len(want) {
			t.Fatalf("chunk %d: %d frames, want %d", chunk, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("chunk %d: frame %d = %q, want %q", chunk, i, got[i], want[i])
			}
		}
	}
	if m := frameMethod(want[2]); m != "sfa.Reserve" {
		t.Fatalf("frameMethod = %q", m)
	}
}

func TestLatHistQuantile(t *testing.T) {
	var h latHist
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i) * time.Millisecond)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 1000
		if got := h.quantile(q); math.Abs(got-want)/want > 0.02 {
			t.Errorf("q%.2f = %.2f ms, want %.2f within 2%%", q, got, want)
		}
	}
}

func TestCPUSharesAttributesPackages(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0.0
	for time.Now().Before(deadline) {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	self, total, err := selfByPackage(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Skip("profile caught no samples")
	}
	sum := 0.0
	for _, v := range self {
		sum += v
	}
	if math.Abs(sum-total) > 1e-9*total {
		t.Fatalf("package shares sum to %v of %v", sum, total)
	}
	if self["main"]+self["time"]+self["runtime"] == 0 {
		t.Fatalf("no samples in the busy loop's packages: %v", self)
	}
	_ = x
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"fedshare/internal/allocation.(*Memo).Solve": "fedshare/internal/allocation",
		"runtime.mallocgc":                           "runtime",
		"encoding/json.(*decodeState).object":        "encoding/json",
		"internal/runtime/syscall.Syscall6":          "internal/runtime/syscall",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
