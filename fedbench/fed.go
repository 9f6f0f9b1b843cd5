package main

// The federation workloads: three in-process authorities over loopback
// TCP, driven by a closed loop of fedClients client connections at PLC.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"fedshare/internal/obs"
	"fedshare/internal/planetlab"
	"fedshare/internal/sfa"
	"fedshare/internal/wal"
)

var fedSecret = []byte("fedbench-federation-secret")

// federation is one running three-authority federation.
type federation struct {
	servers []*sfa.Server
	regs    []*obs.Registry // one per server, in federationShape order
	stores  []sfa.Store
	traced  []*tracedStore // nil entries when untraced or memory-only
	clients []*sfa.Client
	conns   *connTracer // nil when untraced
	dirs    []string
}

// startFederation starts the three authorities, peers them in a full
// mesh, and connects the benchmark's clients to PLC.
func startFederation(cfg config, durable, traced bool) (*federation, error) {
	f := &federation{}
	if traced {
		f.conns = &connTracer{}
	}
	for _, as := range federationShape {
		auth := planetlab.NewAuthority(as.Name)
		for s := 0; s < as.Sites; s++ {
			site := &planetlab.Site{ID: fmt.Sprintf("%s-site%02d", as.Name, s), Name: fmt.Sprintf("%s site %d", as.Name, s)}
			for n := 0; n < nodesPerSite; n++ {
				site.Nodes = append(site.Nodes, planetlab.Node{ID: fmt.Sprintf("node%d", n), Capacity: nodeCapacity})
			}
			if err := auth.AddSite(site); err != nil {
				f.close()
				return nil, err
			}
		}
		reg := obs.NewRegistry()
		scfg := sfa.ServerConfig{}
		if traced {
			dial := f.conns.dialer(true)
			scfg.PeerClient = func(addr string) sfa.ClientConfig {
				return sfa.ClientConfig{DialTimeout: 10 * time.Second, CallTimeout: 10 * time.Second, DialFunc: dial}
			}
		}
		opts := []sfa.Option{sfa.WithLogger(func(string, ...interface{}) {}), sfa.WithMetrics(reg), sfa.WithConfig(scfg)}
		var ts *tracedStore
		if durable {
			dir, err := os.MkdirTemp(cfg.dir, "wal-"+as.Name+"-")
			if err != nil {
				f.close()
				return nil, err
			}
			f.dirs = append(f.dirs, dir)
			// Every record is written to the WAL before its call is
			// acknowledged; the fsync runs on the WAL's interval timer.
			// Under FsyncAlways the figures followed the shared disk's
			// fsync latency, which varied threefold on the reference host.
			ds, rec, err := sfa.OpenDurableStore(sfa.DurableOptions{Dir: dir, Fsync: wal.FsyncInterval, Registry: reg})
			if err != nil {
				f.close()
				return nil, err
			}
			if rec != nil {
				_ = ds.Close()
				f.close()
				return nil, fmt.Errorf("fresh WAL directory %s recovered state", dir)
			}
			var st sfa.Store = ds
			if traced {
				ts = &tracedStore{Store: ds}
				st = ts
			}
			f.stores = append(f.stores, st)
			opts = append(opts, sfa.WithStore(st))
		}
		f.traced = append(f.traced, ts)
		srv := sfa.NewServer(auth, fedSecret, opts...)
		if err := srv.Start("127.0.0.1:0"); err != nil {
			f.close()
			return nil, err
		}
		f.servers = append(f.servers, srv)
		f.regs = append(f.regs, reg)
	}
	for i := range f.servers {
		for j := i + 1; j < len(f.servers); j++ {
			if err := f.servers[i].PeerWith(f.servers[j].Addr()); err != nil {
				f.close()
				return nil, fmt.Errorf("peer %s with %s: %w", federationShape[i].Name, federationShape[j].Name, err)
			}
		}
	}
	for c := 0; c < fedClients; c++ {
		client := f.newClient()
		if err := client.Call(sfa.MethodPing, nil, nil); err != nil {
			_ = client.Close()
			f.close()
			return nil, fmt.Errorf("client %d: %w", c, err)
		}
		f.clients = append(f.clients, client)
	}
	return f, nil
}

// newClient returns a benchmark client of PLC.
func (f *federation) newClient() *sfa.Client {
	cc := sfa.ClientConfig{Addr: f.servers[0].Addr(), Registry: obs.NewRegistry()}
	if f.conns != nil {
		cc.DialFunc = f.conns.dialer(false)
	}
	return sfa.NewClient(cc)
}

// close stops everything the federation started and removes its data.
func (f *federation) close() {
	for _, c := range f.clients {
		_ = c.Close()
	}
	for _, s := range f.servers {
		_ = s.Close()
	}
	for _, st := range f.stores {
		_ = st.Close()
	}
	for _, d := range f.dirs {
		_ = os.RemoveAll(d)
	}
}

// methodTotal sums the completed calls of one method.
type methodTotal struct {
	n int64
	d time.Duration
}

// loadResult is what one closed-loop phase observed.
type loadResult struct {
	elapsed time.Duration
	// span is each window's length; cur is the window calls are being
	// recorded into.
	span [windows]time.Duration
	cur  int
	// lat holds call latencies per window and class (0 writes, 1 reads).
	lat       [windows][2]latHist
	methods   map[string]*methodTotal
	attempted int64
	renews    int64
	// reservesAt counts, per authority, the Reserve executions the load
	// caused there (slice placements at peers, direct reserves at PLC).
	reservesAt map[string]int64
	// probes are the host-speed probes taken while the loop was paused.
	probes []time.Duration
	failures
}

// probesPerPause is how many host-speed probes the closed loop takes
// before and after each window.
const probesPerPause = 3

// runLoad drives the closed loop for the given duration: each client
// issues its stream's next operation as soon as the previous one returns.
// The duration is split into windows; before and after each window, with
// no call outstanding, the host's speed is probed.
func runLoad(f *federation, mixed bool, seed int64, dur time.Duration) *loadResult {
	parts := make([]*loadResult, len(f.clients))
	streams := make([]*fedStream, len(f.clients))
	for c := range f.clients {
		parts[c] = newLoadResult()
		streams[c] = newFedStream(mixed, seed, c)
	}
	cred := sfa.IssueCredential(fedSecret, "fedbench", "fedbench", time.Hour)
	out := newLoadResult()
	probe := func() {
		for k := 0; k < probesPerPause; k++ {
			out.probes = append(out.probes, probeHost())
		}
	}
	probe()
	start := time.Now()
	for w := 0; w < windows; w++ {
		t0 := time.Now()
		deadline := t0.Add(dur / windows)
		var wg sync.WaitGroup
		for c := range f.clients {
			parts[c].cur = w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					runOp(f.clients[c], cred, streams[c].next(), parts[c])
				}
			}()
		}
		wg.Wait()
		out.span[w] = time.Since(t0)
		probe()
	}
	out.elapsed = time.Since(start)
	for _, p := range parts {
		for w := range p.lat {
			for cls := range p.lat[w] {
				out.lat[w][cls].merge(&p.lat[w][cls])
			}
		}
		for m, t := range p.methods {
			out.total(m).n += t.n
			out.total(m).d += t.d
		}
		out.attempted += p.attempted
		out.add(p.failures)
		out.renews += p.renews
		for k, v := range p.reservesAt {
			out.reservesAt[k] += v
		}
	}
	return out
}

func newLoadResult() *loadResult {
	return &loadResult{methods: map[string]*methodTotal{}, reservesAt: map[string]int64{}}
}

// total returns the running total of a method's calls.
func (r *loadResult) total(method string) *methodTotal {
	t := r.methods[method]
	if t == nil {
		t = &methodTotal{}
		r.methods[method] = t
	}
	return t
}

// calls returns the number of completed calls.
func (r *loadResult) calls() int64 {
	n := int64(0)
	for _, t := range r.methods {
		n += t.n
	}
	return n
}

// merged returns the latency histogram of the classes keep selects (0
// writes, 1 reads) over every window.
func (r *loadResult) merged(keep ...int) *latHist {
	h := &latHist{}
	for w := range r.lat {
		for _, cls := range keep {
			h.merge(&r.lat[w][cls])
		}
	}
	return h
}

// timedCall performs and records one call.
func timedCall(c *sfa.Client, r *loadResult, method string, params, result any) error {
	r.attempted++
	t0 := time.Now()
	err := c.Call(method, params, result)
	if err == nil {
		d := time.Since(t0)
		cls := 0
		if !isWrite(method) {
			cls = 1
		}
		r.lat[r.cur][cls].add(d)
		t := r.total(method)
		t.n++
		t.d += d
	}
	return err
}

// runOp executes one generated operation and checks its outputs.
func runOp(c *sfa.Client, cred sfa.Credential, op fedOp, r *loadResult) {
	switch op.Kind {
	case opSlice:
		var resp sfa.SliceResponse
		err := timedCall(c, r, sfa.MethodCreateSlice, sfa.SliceRequest{
			Credential: cred, Name: op.Name, Owner: "fedbench",
			MinSites: op.MinSites, MaxSites: op.MinSites, SliversPerSite: 1,
		}, &resp)
		if err != nil {
			r.fail("create slice %s: %v", op.Name, err)
			return
		}
		if err := checkSlice(op, &resp); err != nil {
			r.fail("%v", err)
		}
		for _, a := range sliceAuthorities(&resp) {
			if a != federationShape[0].Name {
				r.reservesAt[a]++
			}
		}
		if err := timedCall(c, r, sfa.MethodDeleteSlice, sfa.DeleteRequest{Credential: cred, Name: op.Name}, nil); err != nil {
			r.fail("delete slice %s: %v", op.Name, err)
		}
	case opReserve:
		req := sfa.ReserveRequest{
			Credential: cred, SliceName: op.Name, Sites: 1, PerSite: 1,
			IdempotencyKey: op.Name + "/r", TTLSeconds: 60,
		}
		var first, renew sfa.ReserveResponse
		if err := timedCall(c, r, sfa.MethodReserve, req, &first); err != nil {
			r.fail("reserve %s: %v", op.Name, err)
			return
		}
		r.reservesAt[federationShape[0].Name]++
		// The renew re-issues the key: the server must replay the
		// original placement, not place again.
		if err := timedCall(c, r, sfa.MethodReserve, req, &renew); err != nil {
			r.fail("renew %s: %v", op.Name, err)
		} else {
			r.renews++
			if err := checkRenew(op.Name, &first, &renew); err != nil {
				r.fail("%v", err)
			}
		}
		if err := timedCall(c, r, sfa.MethodRelease, sfa.ReleaseRequest{
			Credential: cred, SliceName: op.Name, Slivers: first.Slivers, IdempotencyKey: op.Name + "/rel",
		}, nil); err != nil {
			r.fail("release %s: %v", op.Name, err)
		}
	case opShares:
		var resp sfa.SharesResponse
		if err := timedCall(c, r, sfa.MethodGetShares, sfa.SharesRequest{Policy: "shapley"}, &resp); err != nil {
			r.fail("shares: %v", err)
			return
		}
		if err := checkShares(&resp); err != nil {
			r.fail("%v", err)
		}
	case opList:
		var resp sfa.ResourceList
		if err := timedCall(c, r, sfa.MethodListResources, sfa.Empty{}, &resp); err != nil {
			r.fail("list resources: %v", err)
			return
		}
		if len(resp.Sites) != federationShape[0].Sites {
			r.fail("list resources: %d sites, want %d", len(resp.Sites), federationShape[0].Sites)
		}
	}
}

// isWrite reports whether a method mutates federation state.
func isWrite(method string) bool {
	switch method {
	case sfa.MethodGetShares, sfa.MethodListResources:
		return false
	}
	return true
}

// familyTotal sums, over the children of a snapshot family whose label
// matches (an empty label matches all), the counter or gauge value and the
// histogram sum.
func familyTotal(s obs.Snapshot, family, label, value string) (val, sum float64) {
	for _, f := range s.Families {
		if f.Name != family {
			continue
		}
		for _, m := range f.Metrics {
			if label == "" || m.Labels[label] == value {
				val += m.Value
				sum += m.Sum
			}
		}
	}
	return val, sum
}

// change returns a family's value change from before to after.
func change(before, after obs.Snapshot, family, label, value string) float64 {
	a, _ := familyTotal(after, family, label, value)
	b, _ := familyTotal(before, family, label, value)
	return a - b
}

// sumChange returns a histogram family's sum change from before to after.
func sumChange(before, after obs.Snapshot, family, label, value string) float64 {
	_, a := familyTotal(after, family, label, value)
	_, b := familyTotal(before, family, label, value)
	return a - b
}

// fedPhase is one measured phase: a fresh federation and its closed loop.
type fedPhase struct {
	load   *loadResult
	setups []time.Duration
	// setupProbes are loopback probes taken before each set-up.
	setupProbes []time.Duration
	idleErr     error
	f           *federation
	profile     []byte
	// before and after are each authority's registry around the load.
	before, after     []obs.Snapshot
	rtBefore, rtAfter runtimeSample
}

// reserveExecutions is Δrequests_total{sfa.Reserve} −
// Δdedup_replays_total{sfa.Reserve} at authority i: the reserves it
// actually executed during the load.
func (p *fedPhase) reserveExecutions(i int) int64 {
	return int64(math.Round(change(p.before[i], p.after[i], "fedshare_sfa_requests_total", "method", sfa.MethodReserve) -
		change(p.before[i], p.after[i], "fedshare_sfa_dedup_replays_total", "method", sfa.MethodReserve)))
}

// replays is PLC's dedup replays during the load.
func (p *fedPhase) replays() int64 {
	return int64(math.Round(change(p.before[0], p.after[0], "fedshare_sfa_dedup_replays_total", "", "")))
}

// runFedPhase sets the federation up setupRepeats times (keeping the
// last), runs the closed loop, and checks the substrates drained.
func runFedPhase(cfg config, durable, mixed, traced bool) (*fedPhase, error) {
	p := &fedPhase{}
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		d, err := probeLoopback()
		if err != nil {
			return nil, err
		}
		p.setupProbes = append(p.setupProbes, d)
		t0 := time.Now()
		f, err := startFederation(cfg, durable, traced)
		if err != nil {
			return nil, err
		}
		p.setups = append(p.setups, time.Since(t0))
		if i < setupRepeats-1 {
			f.close()
			continue
		}
		p.f = f
	}
	f := p.f
	if traced {
		f.conns.reset()
		for _, ts := range f.traced {
			if ts != nil {
				ts.reset()
			}
		}
	}
	for _, reg := range f.regs {
		p.before = append(p.before, reg.Snapshot())
	}
	var prof bytes.Buffer
	if traced {
		p.rtBefore = readRuntime()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			f.close()
			return nil, err
		}
	}
	p.load = runLoad(f, mixed, cfg.seed, time.Duration(cfg.seconds*float64(time.Second)))
	if traced {
		pprof.StopCPUProfile()
		p.rtAfter = readRuntime()
		p.profile = prof.Bytes()
	}
	for _, reg := range f.regs {
		p.after = append(p.after, reg.Snapshot())
	}
	p.idleErr = checkIdle(f)
	return p, nil
}

// checkPhase applies the federation-wide checks to a finished phase.
func checkPhase(p *fedPhase, rep *report) {
	rep.attempted += p.load.attempted
	rep.add(p.load.failures)
	if p.idleErr != nil {
		rep.fail("%v", p.idleErr)
	}
	for i, as := range federationShape {
		if got, want := p.reserveExecutions(i), p.load.reservesAt[as.Name]; got != want {
			rep.fail("exactly-once at %s: %d reserve executions, want %d", as.Name, got, want)
		}
	}
	if got := p.replays(); got != p.load.renews {
		rep.fail("dedup replays at PLC: %d, want one per renew (%d)", got, p.load.renews)
	}
}

// checkIdle verifies every substrate is back at full capacity.
func checkIdle(f *federation) error {
	var errs []error
	for i, s := range f.servers {
		c := sfa.NewClient(sfa.ClientConfig{Addr: s.Addr(), Registry: obs.NewRegistry()})
		var rl sfa.ResourceList
		err := c.Call(sfa.MethodListResources, sfa.Empty{}, &rl)
		_ = c.Close()
		if err != nil {
			errs = append(errs, fmt.Errorf("list resources at %s: %w", federationShape[i].Name, err))
			continue
		}
		if err := checkFullCapacity(&rl); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// runFederation runs a fed-* workload.
func runFederation(cfg config) (*report, error) {
	durable := cfg.workload == wlFedDurable
	mixed := cfg.workload == wlFedMixed
	rep := newReport()
	base, err := runFedPhase(cfg, durable, mixed, false)
	if err != nil {
		return nil, err
	}
	base.f.close()
	checkPhase(base, rep)
	baseOps, _, _ := windowed(base.load)
	baseOps *= slowdown(base.load.probes, probeRef)
	if !cfg.trace {
		setFedEndToEnd(rep, base)
		return rep, nil
	}
	// The traced phase replays the same seeded stream on a fresh,
	// instrumented federation.
	tp, err := runFedPhase(cfg, durable, mixed, true)
	if err != nil {
		return nil, err
	}
	defer tp.f.close()
	checkPhase(tp, rep)
	setFedDiagnostics(rep, base)
	setFedLayers(rep, tp)
	tracedOps, _, _ := windowed(tp.load)
	rep.set("trace.overhead_ratio", tracedOps*slowdown(tp.load.probes, probeRef)/baseOps)
	return rep, nil
}

// setFedEndToEnd reports the untraced end-to-end metrics.
func setFedEndToEnd(rep *report, p *fedPhase) {
	rate, p50, p90 := windowed(p.load)
	rep.setScaled(slowdown(p.load.probes, probeRef), rate, p50, p90)
	rep.setSetup(p.setups, slowdown(p.setupProbes, loopbackRef))
	fmt.Fprintf(os.Stderr, "fedbench: %d calls in %.2fs, p99 %.3f ms\n", p.load.calls(), p.load.elapsed.Seconds(), p.load.merged(0, 1).quantile(0.99))
}

// windowed returns the medians over the phase's windows of the call rate
// and of the per-window p50 and p90 latency, unscaled.
func windowed(r *loadResult) (rate, p50, p90 float64) {
	var rates, p50s, p90s []float64
	for w := range r.lat {
		h := &latHist{}
		h.merge(&r.lat[w][0])
		h.merge(&r.lat[w][1])
		rates = append(rates, float64(h.n)/r.span[w].Seconds())
		if h.n > 0 {
			p50s = append(p50s, h.quantile(0.5))
			p90s = append(p90s, h.quantile(0.9))
		}
	}
	return median(rates), median(p50s), median(p90s)
}

// setFedDiagnostics reports the untraced phase's read/write split (the
// traced run's view of what the end-to-end metrics aggregate).
func setFedDiagnostics(rep *report, p *fedPhase) {
	writes, reads := p.load.merged(0), p.load.merged(1)
	rep.set("write_p50_ms", writes.quantile(0.5))
	rep.set("write_p90_ms", writes.quantile(0.9))
	rep.set("read_p50_ms", reads.quantile(0.5))
	rep.set("read_p90_ms", reads.quantile(0.9))
	rep.set("p99_ms", p.load.merged(0, 1).quantile(0.99))
	errRatio := 0.0
	if p.load.attempted > 0 {
		errRatio = float64(p.load.failed) / float64(p.load.attempted)
	}
	rep.set("error_ratio", errRatio)
}

// opTypes maps each client method to the peer methods and store records
// its handling at PLC waits on. CreateSlice and DeleteSlice each also draw
// one idempotency generation (an OpGen record), split between them below.
var opTypes = []struct {
	metric      string
	method      string
	peerMethods []string
	storeOps    []string
	drawsGen    bool
}{
	{"sfa.server.self_ms.create_slice", sfa.MethodCreateSlice, []string{sfa.MethodReserve}, []string{sfa.OpCreateSlice}, true},
	{"sfa.server.self_ms.delete_slice", sfa.MethodDeleteSlice, []string{sfa.MethodRelease}, []string{sfa.OpDeleteSlice}, true},
	{"sfa.server.self_ms.reserve", sfa.MethodReserve, nil, []string{sfa.OpReserve}, false},
	{"sfa.server.self_ms.release", sfa.MethodRelease, nil, []string{sfa.OpRelease}, false},
	{"sfa.server.self_ms.get_shares", sfa.MethodGetShares, []string{sfa.MethodListResources}, nil, false},
	{"sfa.server.self_ms.list_resources", sfa.MethodListResources, nil, nil, false},
}

// setFedLayers reports the traced phase's per-layer metrics.
func setFedLayers(rep *report, p *fedPhase) {
	ops := float64(p.load.calls())
	wall := p.load.elapsed

	// Peer connections: round trips, calls per operation, busy share.
	var peerRTT []float64
	peerTime := map[string]time.Duration{}
	peerCalls := 0
	maxBusy := 0.0
	var bytesTotal int64
	for _, c := range p.f.conns.snapshot() {
		calls, busy, in, out := c.stats()
		bytesTotal += in + out
		if !c.peer {
			continue
		}
		for _, cl := range calls {
			peerRTT = append(peerRTT, float64(cl.rtt)/float64(time.Millisecond))
			peerTime[cl.method] += cl.rtt
		}
		peerCalls += len(calls)
		maxBusy = math.Max(maxBusy, busy.Seconds()/wall.Seconds())
	}
	rep.set("sfa.peer.rtt_p50_ms", quantile(peerRTT, 0.5))
	rep.set("sfa.peer.calls_per_op", float64(peerCalls)/ops)
	rep.set("sfa.peer.conn_busy", maxBusy)
	rep.set("sfa.wire.bytes_per_op", float64(bytesTotal)/ops)

	// Stores: append latency and count, snapshot cuts; PLC's appends by
	// record op feed the server self-time split.
	var appendMs, snapMs []float64
	plcStore := map[string]time.Duration{}
	appends := 0
	for i, ts := range p.f.traced {
		if ts == nil {
			continue
		}
		as, snaps := ts.stats()
		appends += len(as)
		for _, a := range as {
			appendMs = append(appendMs, float64(a.d)/float64(time.Millisecond))
			if i == 0 {
				plcStore[a.op] += a.d
			}
		}
		snapMs = append(snapMs, millis(snaps)...)
	}
	rep.set("sfa.store.append_p50_ms", quantile(appendMs, 0.5))
	rep.set("sfa.store.append_p90_ms", quantile(appendMs, 0.9))
	rep.set("sfa.store.appends_per_op", float64(appends)/ops)
	snapMean := 0.0
	for _, s := range snapMs {
		snapMean += s / float64(len(snapMs))
	}
	rep.set("sfa.store.snapshot_ms", snapMean)

	// WAL: fsync latency and the group-commit ratio, from the registries.
	var fsyncHist histDelta
	var fsyncs, walAppends float64
	for i := range p.after {
		fsyncs += change(p.before[i], p.after[i], "fedshare_wal_fsyncs_total", "", "")
		walAppends += change(p.before[i], p.after[i], "fedshare_wal_appends_total", "", "")
		fsyncHist = fsyncHist.add(histogramDelta(p.after[i], p.before[i], "fedshare_wal_fsync_seconds"))
	}
	rep.set("wal.fsync_p50_ms", 1000*fsyncHist.quantile(0.5))
	ratio := 0.0
	if walAppends > 0 {
		ratio = fsyncs / walAppends
	}
	rep.set("wal.fsyncs_per_append", ratio)

	// Server self time per operation type: handler time at PLC minus the
	// peer round trips and store appends it waited on. The residual is
	// client call time the handler does not account for (client, codec,
	// loopback).
	clientTime := time.Duration(0)
	handlerTime := 0.0
	for _, t := range p.load.methods {
		clientTime += t.d
	}
	genDraws := p.load.total(sfa.MethodCreateSlice).n + p.load.total(sfa.MethodDeleteSlice).n
	for _, ot := range opTypes {
		n := p.load.total(ot.method).n
		sum := sumChange(p.before[0], p.after[0], "fedshare_sfa_request_seconds", "method", ot.method)
		handlerTime += sum
		self := sum
		for _, m := range ot.peerMethods {
			self -= peerTime[m].Seconds()
		}
		for _, op := range ot.storeOps {
			self -= plcStore[op].Seconds()
		}
		if ot.drawsGen && genDraws > 0 {
			self -= plcStore[sfa.OpGen].Seconds() * float64(n) / float64(genDraws)
		}
		v := 0.0
		if n > 0 {
			v = 1000 * self / float64(n)
		}
		rep.set(ot.metric, v)
		if ot.method == sfa.MethodGetShares {
			rep.set("core.shares_ms", v)
		}
	}
	rep.set("fed.unattributed_ms", 1000*(clientTime.Seconds()-handlerTime)/ops)

	// Codec: time WriteFrame/ReadFrame over the frames the run carried.
	enc, dec := codecTimes(p.f.conns.captured())
	rep.set("sfa.wire.encode_us", enc)
	rep.set("sfa.wire.decode_us", dec)

	// Client retries and sheds (benchmark clients and PLC's peer clients),
	// server dedup replays at PLC.
	var retries, shed int64
	for _, c := range p.f.clients {
		st := c.Stats()
		retries += st.Retries
		shed += st.Shed
	}
	for i := range p.after {
		retries += int64(change(p.before[i], p.after[i], "fedshare_sfa_client_retries_total", "", ""))
	}
	rep.set("sfa.client.retries", float64(retries))
	rep.set("sfa.client.shed", float64(shed))
	rep.set("sfa.server.dedup_replays", float64(p.replays()))

	setRuntimeMetrics(rep, p.rtBefore, p.rtAfter, ops)
	setCPUShares(rep, p.profile)
}

// setCPUShares reports the profile's per-package self shares.
func setCPUShares(rep *report, profile []byte) {
	shares, err := cpuShares(profile)
	if err != nil {
		rep.fail("%v", err)
		return
	}
	for k, v := range shares {
		rep.set(k, v)
	}
}

// codecTimes returns the mean WriteFrame and ReadFrame time per frame (µs)
// over the captured frames.
func codecTimes(frames [][]byte) (encUS, decUS float64) {
	if len(frames) == 0 {
		return 0, 0
	}
	envs := make([]*sfa.Envelope, 0, len(frames))
	t0 := time.Now()
	for _, fr := range frames {
		env, err := sfa.ReadFrame(bytes.NewReader(fr))
		if err != nil {
			continue
		}
		envs = append(envs, env)
	}
	decUS = float64(time.Since(t0).Microseconds()) / float64(len(frames))
	t0 = time.Now()
	for _, env := range envs {
		_ = sfa.WriteFrame(io.Discard, env)
	}
	if len(envs) > 0 {
		encUS = float64(time.Since(t0).Microseconds()) / float64(len(envs))
	}
	return encUS, decUS
}

// histDelta is a histogram's change between two snapshots: cumulative
// bucket counts plus the total (the implicit +Inf bucket).
type histDelta struct {
	buckets []obs.BucketCount
	count   float64
}

// histogramDelta returns a histogram's change from before to after.
func histogramDelta(after, before obs.Snapshot, family string) histDelta {
	get := func(s obs.Snapshot) ([]obs.BucketCount, uint64) {
		for _, f := range s.Families {
			if f.Name == family && len(f.Metrics) > 0 {
				return f.Metrics[0].Buckets, f.Metrics[0].Count
			}
		}
		return nil, 0
	}
	a, ac := get(after)
	b, bc := get(before)
	out := histDelta{count: float64(ac) - float64(bc)}
	for i := range a {
		bk := a[i]
		if i < len(b) {
			bk.Count -= b[i].Count
		}
		out.buckets = append(out.buckets, bk)
	}
	return out
}

// add sums another delta of the same histogram family into h.
func (h histDelta) add(o histDelta) histDelta {
	if h.buckets == nil {
		return histDelta{buckets: append([]obs.BucketCount(nil), o.buckets...), count: o.count}
	}
	for i := range h.buckets {
		if i < len(o.buckets) {
			h.buckets[i].Count += o.buckets[i].Count
		}
	}
	h.count += o.count
	return h
}

// quantile estimates a quantile by linear interpolation inside the bucket
// that holds it.
func (h histDelta) quantile(q float64) float64 {
	if h.count <= 0 {
		return 0
	}
	target := q * h.count
	prevBound, prevCount := 0.0, 0.0
	for _, b := range h.buckets {
		c := float64(b.Count)
		if c >= target {
			if c == prevCount {
				return b.LE
			}
			return prevBound + (b.LE-prevBound)*(target-prevCount)/(c-prevCount)
		}
		prevBound, prevCount = b.LE, c
	}
	return prevBound
}
