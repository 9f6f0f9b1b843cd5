package sfa

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fedshare/internal/core"
	"fedshare/internal/economics"
	"fedshare/internal/obs"
	"fedshare/internal/planetlab"
)

// ServerConfig tunes a Server's fault-tolerance machinery. Zero fields
// take defaults, so the zero value preserves historical behavior.
type ServerConfig struct {
	// IdleReadDeadline drops a connection that sends nothing for this long
	// (default 2m). Tests shrink it to ~100ms to exercise the idle-drop
	// path quickly.
	IdleReadDeadline time.Duration
	// DedupCapacity bounds the Reserve idempotency-key table (default
	// 1024 completed entries; in-flight entries are never evicted).
	DedupCapacity int
	// LeaseReapInterval paces the background lease reaper (default 1s).
	LeaseReapInterval time.Duration
	// Now supplies the lease clock (default time.Now). Tests substitute a
	// simulated clock so expiry is driven deterministically; fedd keeps
	// the wall clock.
	Now func() time.Time
	// MaxInFlight bounds concurrently executing requests; excess requests
	// are shed unexecuted with CodeOverloaded so clients retry with
	// backoff instead of piling onto a saturated server. 0 = unlimited
	// (the historical behavior).
	MaxInFlight int
	// ProbeInterval paces peer liveness probes (default 2s). Probes
	// piggyback on the reaper tick and due-ness is judged by Now, so tests
	// drive them with a simulated clock.
	ProbeInterval time.Duration
	// SuspectAfter and DownAfter are the consecutive-transport-failure
	// thresholds for healthy→suspect (default 1) and suspect→down
	// (default 3, counted from the first failure of the streak).
	SuspectAfter int
	DownAfter    int
	// Seed feeds the deterministic probe-jitter RNG.
	Seed uint64
	// PeerClient, when set, builds the ClientConfig for outbound peer
	// connections (PeerWith and peering back-dials); tests use it to
	// route peer traffic through fault gates, fake clocks, and custom
	// breaker settings. Addr and Registry are filled in if left zero.
	PeerClient func(addr string) ClientConfig
}

func (cfg ServerConfig) withDefaults() ServerConfig {
	if cfg.IdleReadDeadline <= 0 {
		cfg.IdleReadDeadline = 2 * time.Minute
	}
	if cfg.DedupCapacity <= 0 {
		cfg.DedupCapacity = 1024
	}
	if cfg.LeaseReapInterval <= 0 {
		cfg.LeaseReapInterval = time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 1
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = 3
	}
	return cfg
}

// Server is one authority's SFA registry: it serves the wire protocol over
// TCP, manages peering, embeds federated slices, and computes value shares
// from the federation's advertised contributions.
type Server struct {
	auth     *planetlab.Authority
	secret   []byte
	demand   *economics.Workload
	log      *obs.Logger
	obsreg   *obs.Registry
	metrics  *serverMetrics
	cfg      ServerConfig
	dedup    *dedupTable
	leases   *leaseTable
	health   *healthTracker
	recon    *reconciler
	seq      atomic.Uint64 // per-lifecycle nonce for outbound idempotency keys
	inflight atomic.Int64  // requests currently being handled (admission gate)
	store    Store         // nil = memory-only (the default)

	// durableMu serializes every (state mutation + store append) pair so
	// the log is a true linearization of execution: replaying a durable
	// log prefix reproduces exactly the state the server held when that
	// prefix was its log. It also makes the snapshot cut at an append
	// boundary consistent — no mutation is half-applied while it is held.
	// Lock ordering: durableMu is acquired before any of auth.mu,
	// leases.mu, dedup.mu, or s.mu, and never while holding them; network
	// calls to peers are never made under durableMu.
	durableMu sync.Mutex

	mu         sync.Mutex
	record     AuthorityRecord
	peers      map[string]*peerHandle
	remoteRefs map[string][]SliverRecord // slice -> slivers held at peers
	conns      map[net.Conn]struct{}
	usage      map[string]int // authority -> cumulative slivers served
	embedded   int            // slices embedded via this registry
	draining   bool

	ln       net.Listener
	wg       sync.WaitGroup
	reapStop chan struct{}
	reapDone chan struct{}
	closed   bool
}

type peerHandle struct {
	record AuthorityRecord
	client *Client
	// lastResources is the peer's last successful advertisement (guarded
	// by the server's mu): when the peer is down, degraded-mode share
	// computation still shapes the full federation model with it before
	// restricting valuation to the live sub-federation.
	lastResources *ResourceList
}

// Option customizes a Server.
type Option func(*Server)

// WithLogger routes server diagnostics to logf (default: log.Printf). The
// server wraps logf in a leveled obs.Logger at the current level, so
// WithLogger composes with WithLogLevel in either order.
func WithLogger(logf func(string, ...interface{})) Option {
	return func(s *Server) { s.log = obs.NewLogger(logf, s.log.Level()) }
}

// WithLogLevel sets the minimum diagnostic level (default obs.LogInfo).
// At obs.LogDebug the server also logs one line per dispatched request.
func WithLogLevel(min obs.LogLevel) Option {
	return func(s *Server) { s.log.SetLevel(min) }
}

// WithMetrics routes the server's instrumentation to reg instead of
// obs.Default — tests use this to read counters in isolation.
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Server) { s.obsreg = reg }
}

// WithDemand sets the demand profile used by GetShares (default: a single
// measurement-style experiment across the federation).
func WithDemand(w *economics.Workload) Option {
	return func(s *Server) { s.demand = w }
}

// WithConfig overrides the server's fault-tolerance configuration; zero
// fields keep their defaults.
func WithConfig(cfg ServerConfig) Option {
	return func(s *Server) { s.cfg = cfg.withDefaults() }
}

// WithStore persists every durable mutation through st before it is
// acknowledged. The default (no store) keeps the server memory-only with
// identical behavior. Pair with Restore to reload recovered state before
// Start.
func WithStore(st Store) Option {
	return func(s *Server) { s.store = st }
}

// NewServer builds a registry for the given authority. secret is the
// federation trust root shared among peered authorities.
func NewServer(auth *planetlab.Authority, secret []byte, opts ...Option) *Server {
	s := &Server{
		auth:       auth,
		secret:     secret,
		peers:      map[string]*peerHandle{},
		remoteRefs: map[string][]SliverRecord{},
		conns:      map[net.Conn]struct{}{},
		usage:      map[string]int{},
		log:        obs.NewLogger(log.Printf, obs.LogInfo),
		obsreg:     obs.Default,
		cfg:        ServerConfig{}.withDefaults(),
		leases:     newLeaseTable(),
	}
	for _, o := range opts {
		o(s)
	}
	s.dedup = newDedupTable(s.cfg.DedupCapacity)
	s.metrics = newServerMetrics(s.obsreg)
	s.recon = newReconciler()
	s.health = newHealthTracker(s.cfg.Now, s.cfg.SuspectAfter, s.cfg.DownAfter, s.cfg.ProbeInterval, s.cfg.Seed)
	s.health.onTransition = func(peer string, from, to PeerState) {
		s.metrics.peerState.With(peer).Set(float64(to))
		if from != to {
			s.metrics.peerTransitions.With(peer, to.String()).Inc()
			s.log.Infof("sfa[%s]: peer %s: %s -> %s", s.auth.Name, peer, from, to)
		}
	}
	// Delta updates (not Set) so servers sharing a registry aggregate.
	s.leases.onChange = func(delta int) { s.metrics.leasesActive.Add(float64(delta)) }
	if s.store != nil {
		// Snapshots are cut inside Append while durableMu is held, so the
		// captured state is exactly the state after the appended record.
		s.store.SetSnapshotSource(s.snapshotState)
	}
	return s
}

// storeLock serializes a mutation+append pair when a store is configured;
// without one it is free so the memory-only path keeps its concurrency.
func (s *Server) storeLock() {
	if s.store != nil {
		s.durableMu.Lock()
	}
}

func (s *Server) storeUnlock() {
	if s.store != nil {
		// Cut any due snapshot here — after every append AND side effect
		// of the region (dedup completion included) — so the captured
		// state is exactly what replaying the log up to this point yields.
		if err := s.store.MaybeSnapshot(); err != nil {
			s.log.Errorf("sfa[%s]: snapshot: %v", s.auth.Name, err)
		}
		s.durableMu.Unlock()
	}
}

// storeAppend logs one mutation record. Callers hold durableMu (via
// storeLock) so the log order equals execution order.
func (s *Server) storeAppend(rec Record) error {
	if s.store == nil {
		return nil
	}
	return s.store.Append(rec)
}

// nextGen draws an idempotency generation and makes the high-water mark
// durable, so a recovered server never reuses a generation that may have
// reached a peer inside an outbound idempotency key.
func (s *Server) nextGen() uint64 {
	s.storeLock()
	defer s.storeUnlock()
	// Drawing is the decision, and like placement it happens before the
	// record exists: the atomic increment keeps concurrent memory-only
	// draws unique, and apply raises the high-water mark in replay.
	rec := Record{Op: OpGen, Gen: s.seq.Add(1)}
	if err := s.storeAppend(rec); err != nil {
		s.log.Errorf("sfa[%s]: wal append (gen %d): %v", s.auth.Name, rec.Gen, err)
	}
	_ = s.apply(rec)
	return rec.Gen
}

// Start begins listening on addr ("127.0.0.1:0" for an ephemeral port) and
// serving connections until Close.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("sfa: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	s.ln = ln
	s.record = AuthorityRecord{
		Name:  s.auth.Name,
		Addr:  ln.Addr().String(),
		Sites: s.auth.SiteCount(),
	}
	s.reapStop = make(chan struct{})
	s.reapDone = make(chan struct{})
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	go s.reapLoop()
	return nil
}

// reapLoop periodically releases expired leases until Close. The tick is
// wall-clock paced but expiry is judged by cfg.Now, so tests drive a
// simulated clock while fedd runs in real time.
func (s *Server) reapLoop() {
	defer close(s.reapDone)
	t := time.NewTicker(s.cfg.LeaseReapInterval)
	defer t.Stop()
	for {
		select {
		case <-s.reapStop:
			return
		case <-t.C:
			s.reapExpiredLeases()
			s.probePeers()
		}
	}
}

// reapExpiredLeases releases every lease whose TTL has elapsed and returns
// how many it reaped. Local effects (freeing slivers, deleting slices) are
// logged to the durable store under durableMu; remote releases happen
// afterwards, outside the lock, because they draw generations and make
// network calls. Without a store there is no durableMu, so a reserve that
// merges into a due holding between the due check and apply is released
// with it.
func (s *Server) reapExpiredLeases() int {
	type pendingRemote struct {
		slice   string
		slivers []SliverRecord
	}
	var remotes []pendingRemote
	s.storeLock()
	due := s.leases.due(s.cfg.Now())
	for _, l := range due {
		switch l.kind {
		case leaseReserve:
			s.log.Infof("sfa[%s]: lease expired for %s: released %d slivers",
				s.auth.Name, l.slice, len(l.slivers))
		case leaseSlice:
			// Delete the slice exactly as an explicit DeleteSlice would:
			// local slivers freed now, remote slivers released after the
			// durable region.
			remotes = append(remotes, pendingRemote{slice: l.slice, slivers: s.remoteRefsOf(l.slice)})
			s.log.Infof("sfa[%s]: slice lease expired: %s", s.auth.Name, l.slice)
		}
		rec := Record{Op: OpExpire, Slice: l.slice, Kind: int(l.kind)}
		if err := s.storeAppend(rec); err != nil {
			s.log.Errorf("sfa[%s]: wal append (expire %s): %v", s.auth.Name, l.slice, err)
		}
		_ = s.apply(rec)
		s.metrics.leasesExpired.Inc()
	}
	s.storeUnlock()
	for _, pr := range remotes {
		s.releaseRemote(pr.slice, pr.slivers)
	}
	if len(due) > 0 {
		s.log.Debugf("sfa[%s]: reaper pass released %d expired leases", s.auth.Name, len(due))
	}
	return len(due)
}

// remoteRefsOf returns the slivers slice holds at peers.
func (s *Server) remoteRefsOf(slice string) []SliverRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.remoteRefs[slice]
}

// Addr returns the listening address (valid after Start).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.record.Addr
}

// Close stops the listener, closes peer connections, stops the lease
// reaper, and waits for active connections to drain. Leases still active
// are left in place: their resources belong to remote coordinators and the
// process is going away anyway.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	if s.draining {
		ln = nil // Drain already closed the listener
	}
	reapStop := s.reapStop
	peers := s.peers
	s.peers = map[string]*peerHandle{}
	s.metrics.peers.Set(0)
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	if reapStop != nil {
		close(reapStop)
		<-s.reapDone
	}
	for _, p := range peers {
		if p.client != nil {
			_ = p.client.Close()
		}
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}

// Drain gracefully quiesces the server: it stops accepting new
// connections, lets in-flight requests finish, wakes idle connections so
// they close promptly, and blocks until every connection handler has
// returned. Active leases are NOT released — their holders still own the
// resources until TTL or explicit Release. Draining() reports true from
// the moment Drain is entered, so a readiness probe can flip to 503 while
// in-flight work completes. Call Close afterwards for final cleanup.
func (s *Server) Drain() {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	start := time.Now()
	if !already {
		s.log.Infof("sfa[%s]: drain started: %d open connections, %d active holdings",
			s.auth.Name, len(conns), s.leases.active())
		if ln != nil {
			_ = ln.Close()
		}
		// Expire idle reads immediately; serveConn re-checks the draining
		// flag after arming each read deadline, so no connection can
		// re-arm past this point and linger.
		for _, c := range conns {
			_ = c.SetReadDeadline(time.Now())
		}
	}
	s.wg.Wait()
	if !already {
		s.log.Infof("sfa[%s]: drain complete in %s", s.auth.Name,
			time.Since(start).Round(time.Millisecond))
	}
}

// Draining reports whether Drain has been initiated.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// acceptBackoffMax caps the accept-loop retry delay.
const acceptBackoffMax = time.Second

// acceptLogInterval bounds the accept-error log rate: within the interval
// further failures only bump the counter; the next emitted line reports
// how many were suppressed.
const acceptLogInterval = 5 * time.Second

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	var (
		backoff    time.Duration
		lastLog    time.Time
		suppressed int
	)
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// A flapping listener (EMFILE, transient network failure) must
			// not spam the log or hot-loop: every failure increments the
			// counter, logging is rate-limited, and the retry delay doubles
			// up to a cap.
			s.metrics.acceptErrors.Inc()
			if now := time.Now(); now.Sub(lastLog) >= acceptLogInterval {
				s.log.Errorf("sfa[%s]: accept: %v (%d earlier failures suppressed)",
					s.auth.Name, err, suppressed)
				lastLog = now
				suppressed = 0
			} else {
				suppressed++
			}
			if backoff == 0 {
				backoff = 5 * time.Millisecond
			} else if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	s.metrics.activeConns.Inc()
	defer func() {
		s.metrics.activeConns.Dec()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		if s.Draining() {
			return
		}
		if err := conn.SetReadDeadline(time.Now().Add(s.cfg.IdleReadDeadline)); err != nil {
			return
		}
		// Re-check after arming the deadline: Drain sets an immediate
		// deadline on every connection, and this second look closes the
		// race where our SetReadDeadline overwrote it.
		if s.Draining() {
			return
		}
		req, err := ReadFrame(r)
		if err != nil {
			// EOF is a clean client close and a deadline is an idle drop;
			// anything else is a malformed or oversized frame.
			if err != io.EOF && !errors.Is(err, net.ErrClosed) && !errors.Is(err, os.ErrDeadlineExceeded) {
				s.metrics.protocolErrors.Inc()
				s.log.Debugf("sfa[%s]: dropping connection: %v", s.auth.Name, err)
			}
			return
		}
		resp := s.dispatch(req)
		if err := writeFrame(w, resp, true); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

func (s *Server) dispatch(req *Envelope) *Envelope {
	// Admission gate: shed excess load before any work happens. Shed
	// requests are guaranteed unexecuted, carry CodeOverloaded so clients
	// retry with backoff without tripping their breakers, and do NOT count
	// in requests_total — the dispatched−replayed exactly-once identity
	// covers only executed traffic.
	if max := s.cfg.MaxInFlight; max > 0 {
		if n := s.inflight.Add(1); n > int64(max) {
			s.inflight.Add(-1)
			s.metrics.shed.Inc()
			s.log.Debugf("sfa[%s]: shed %s: in-flight bound %d reached", s.auth.Name, req.Method, max)
			return &Envelope{ID: req.ID, Error: "server overloaded: in-flight admission bound reached", Code: CodeOverloaded}
		}
		defer s.inflight.Add(-1)
	}
	label := methodLabel(req.Method)
	start := time.Now()
	resp := &Envelope{ID: req.ID}
	result, err := s.handle(req.Method, req.Params)
	dur := time.Since(start)
	s.metrics.requests.With(label).Inc()
	s.metrics.latency.With(label).Observe(dur.Seconds())
	if err != nil {
		s.metrics.errors.With(label).Inc()
		s.log.Debugf("sfa[%s]: method=%s dur=%s err=%q", s.auth.Name, req.Method, dur, err)
		resp.Error = err.Error()
		return resp
	}
	s.log.Debugf("sfa[%s]: method=%s dur=%s", s.auth.Name, req.Method, dur)
	resp.Result = marshal(result)
	return resp
}

func (s *Server) handle(method string, params json.RawMessage) (interface{}, error) {
	switch method {
	case MethodPing:
		return Empty{}, nil
	case MethodGetRecord:
		s.mu.Lock()
		defer s.mu.Unlock()
		rec := s.record
		rec.Sites = s.auth.SiteCount()
		return rec, nil
	case MethodListResources:
		return s.listResources(), nil
	case MethodPeer:
		var p PeerRequest
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, fmt.Errorf("bad peer request: %w", err)
		}
		return s.handlePeer(p)
	case MethodCreateSlice:
		var p SliceRequest
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, fmt.Errorf("bad slice request: %w", err)
		}
		return s.handleCreateSlice(p)
	case MethodDeleteSlice:
		var p DeleteRequest
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, fmt.Errorf("bad delete request: %w", err)
		}
		return s.handleDeleteSlice(p)
	case MethodReserve:
		var p ReserveRequest
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, fmt.Errorf("bad reserve request: %w", err)
		}
		return s.handleReserve(p)
	case MethodRelease:
		var p ReleaseRequest
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, fmt.Errorf("bad release request: %w", err)
		}
		return s.handleRelease(p)
	case MethodGetShares:
		var p SharesRequest
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, fmt.Errorf("bad shares request: %w", err)
		}
		return s.handleShares(p)
	case MethodGetUsage:
		return s.handleUsage(), nil
	case MethodListHoldings:
		var p HoldingsRequest
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, fmt.Errorf("bad holdings request: %w", err)
		}
		return s.handleListHoldings(p)
	}
	return nil, fmt.Errorf("unknown method %q", method)
}

func (s *Server) verify(c Credential) error {
	return c.Verify(s.secret, time.Now())
}

func (s *Server) listResources() ResourceList {
	out := ResourceList{Authority: s.auth.Name}
	for _, site := range s.auth.Sites() {
		out.Sites = append(out.Sites, SiteResource{
			SiteID:   site.ID,
			Name:     site.Name,
			Nodes:    len(site.Nodes),
			Capacity: site.Capacity(),
			Free:     s.auth.SiteFree(site.ID),
		})
	}
	return out
}

// newPeerClient builds the client for an outbound peer connection, through
// the PeerClient hook when configured. The connection is lazy; callers that
// need eager errors issue a Ping.
func (s *Server) newPeerClient(addr string) *Client {
	var cc ClientConfig
	if s.cfg.PeerClient != nil {
		cc = s.cfg.PeerClient(addr)
	} else {
		cc = ClientConfig{DialTimeout: 10 * time.Second, CallTimeout: 10 * time.Second}
	}
	if cc.Addr == "" {
		cc.Addr = addr
	}
	if cc.Registry == nil {
		cc.Registry = s.obsreg
	}
	return NewClient(cc)
}

// callPeer performs one RPC against a peer and feeds the outcome to the
// health tracker: transport failures count against the peer, any answered
// request proves it alive.
func (s *Server) callPeer(name string, client *Client, method string, params, result interface{}) error {
	err := client.Call(method, params, result)
	s.health.observe(name, !isTransportFailure(err))
	return err
}

// handlePeer records the caller as a peer and connects back to it.
func (s *Server) handlePeer(p PeerRequest) (*PeerResponse, error) {
	if err := s.verify(p.Credential); err != nil {
		return nil, err
	}
	if p.Record.Name == s.auth.Name {
		return nil, fmt.Errorf("cannot peer with self")
	}
	client := s.newPeerClient(p.Record.Addr)
	if err := client.Call(MethodPing, nil, nil); err != nil {
		_ = client.Close()
		return nil, fmt.Errorf("peer back-dial: %w", err)
	}
	s.mu.Lock()
	if old, ok := s.peers[p.Record.Name]; ok && old.client != nil {
		_ = old.client.Close()
	}
	s.peers[p.Record.Name] = &peerHandle{record: p.Record, client: client}
	s.metrics.peers.Set(float64(len(s.peers)))
	rec := s.record
	rec.Sites = s.auth.SiteCount()
	s.mu.Unlock()
	s.health.ensure(p.Record.Name)
	s.log.Infof("sfa[%s]: peered with %s (%s)", s.auth.Name, p.Record.Name, p.Record.Addr)
	return &PeerResponse{Record: rec}, nil
}

// handleListHoldings answers the anti-entropy read: which reserve holdings
// this authority tracks for the asking coordinator, canonically ordered.
func (s *Server) handleListHoldings(p HoldingsRequest) (*HoldingsResponse, error) {
	if err := s.verify(p.Credential); err != nil {
		return nil, err
	}
	holder := p.Holder
	if holder == "" {
		holder = p.Credential.Subject
	}
	resp := &HoldingsResponse{Authority: s.auth.Name}
	for _, l := range s.leases.holdingsFor(holder) {
		h := Holding{Slice: l.slice, Slivers: toRecords(s.auth.Name, l.slivers)}
		if !l.expiry.IsZero() {
			h.Expiry = l.expiry.UnixNano()
		}
		sort.Slice(h.Slivers, func(i, j int) bool {
			if h.Slivers[i].SiteID != h.Slivers[j].SiteID {
				return h.Slivers[i].SiteID < h.Slivers[j].SiteID
			}
			return h.Slivers[i].NodeID < h.Slivers[j].NodeID
		})
		resp.Holdings = append(resp.Holdings, h)
	}
	sort.Slice(resp.Holdings, func(i, j int) bool { return resp.Holdings[i].Slice < resp.Holdings[j].Slice })
	return resp, nil
}

// probePeers pings every peer whose probe deadline has passed (paced by
// the reaper tick, judged by cfg.Now). A probe reaching a down peer starts
// recovery: the reconciler runs inline on the reaper goroutine — so Close,
// which stops the reaper before closing peer clients, never races it — and
// readmits the peer only after proving convergence. A healthy peer with
// queued operations (accrued in a transition race window) is drained
// through the same path.
func (s *Server) probePeers() {
	for _, name := range s.health.dueProbes() {
		s.mu.Lock()
		ph := s.peers[name]
		stopped := s.closed || s.draining
		s.mu.Unlock()
		if ph == nil || stopped {
			continue
		}
		err := ph.client.Call(MethodPing, nil, nil)
		ok := !isTransportFailure(err)
		switch s.health.state(name) {
		case PeerDown:
			if ok && s.health.beginRecovery(name) {
				s.log.Infof("sfa[%s]: probe reached down peer %s; reconciling", s.auth.Name, name)
				s.reconcilePeer(name, ph)
			}
		case PeerRecovering:
			// Owned by a reconciler; nothing to observe.
		default:
			s.health.observe(name, ok)
			if ok && s.recon.depth(name) > 0 && s.health.beginDrain(name) {
				s.reconcilePeer(name, ph)
			}
		}
	}
}

// cacheResources remembers a peer's last successful advertisement;
// cachedResources returns it (nil if none).
func (s *Server) cacheResources(name string, rl *ResourceList) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ph, ok := s.peers[name]; ok {
		ph.lastResources = rl
	}
}

func (s *Server) cachedResources(name string) *ResourceList {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ph, ok := s.peers[name]; ok {
		return ph.lastResources
	}
	return nil
}

// PeerHealth reports each peer's lifecycle condition, breaker state, and
// reconcile backlog, sorted by name — the data behind fedd's /peersz
// endpoint and fedctl status's peer table.
func (s *Server) PeerHealth() []PeerHealthInfo {
	infos := s.health.snapshot()
	s.mu.Lock()
	handles := make(map[string]*peerHandle, len(s.peers))
	for n, ph := range s.peers {
		handles[n] = ph
	}
	s.mu.Unlock()
	out := infos[:0]
	for _, info := range infos {
		ph, ok := handles[info.Peer]
		if !ok {
			continue // tracked but no longer peered
		}
		info.Addr = ph.record.Addr
		if ph.client != nil {
			info.Breaker = ph.client.BreakerState()
		}
		info.Backlog = s.recon.depth(info.Peer)
		out = append(out, info)
	}
	return out
}

// PeerLifecycleState returns one peer's current health state.
func (s *Server) PeerLifecycleState(name string) PeerState {
	return s.health.state(name)
}

// handleReserve places slivers locally for a remote federated slice. With
// an idempotency key, a retried request replays the original response
// instead of double-booking; with a TTL, the reservation is a lease the
// reaper releases once the holding time elapses.
func (s *Server) handleReserve(p ReserveRequest) (*ReserveResponse, error) {
	if err := s.verify(p.Credential); err != nil {
		return nil, err
	}
	if p.Sites <= 0 || p.PerSite <= 0 {
		return nil, fmt.Errorf("reserve needs positive sites and per-site counts")
	}
	var key string
	var entry *dedupEntry
	if p.IdempotencyKey != "" {
		// Keys are namespaced by method so a key accidentally reused
		// across Reserve and Release can never replay the wrong method's
		// cached outcome.
		key = "reserve:" + p.IdempotencyKey
		e, claimed := s.dedup.claim(key)
		if !claimed {
			// A duplicate (retry after a lost response, or a concurrent
			// twin): wait for the original execution and replay its
			// outcome verbatim.
			<-e.done
			s.metrics.dedupReplays.With(MethodReserve).Inc()
			s.log.Debugf("sfa[%s]: reserve dedup replay for key %q", s.auth.Name, p.IdempotencyKey)
			if e.errMsg != "" {
				return nil, errors.New(e.errMsg)
			}
			resp, ok := e.resp.(*ReserveResponse)
			if !ok {
				// Unreachable with namespaced keys, but fail loudly rather
				// than replaying a silent empty success.
				return nil, fmt.Errorf("idempotency key %q: cached outcome is not a reserve response", p.IdempotencyKey)
			}
			return resp, nil
		}
		entry = e
	}
	s.storeLock()
	defer s.storeUnlock()
	candidates := s.auth.AvailableSites(p.PerSite)
	if len(candidates) > p.Sites {
		candidates = candidates[:p.Sites]
	}
	var placed []planetlab.Sliver
	for _, siteID := range candidates {
		svs, err := s.auth.ReserveSlivers(p.SliceName, siteID, p.PerSite)
		if err != nil {
			continue // another request raced us; skip the site
		}
		placed = append(placed, svs...)
	}
	// Every holding is tracked, leased (TTL set) or not, so Release can
	// free exactly the slivers still held here and nothing else. The
	// holder (credential subject) keys the anti-entropy ListHoldings read.
	rec := Record{Op: OpReserve, Slice: p.SliceName, Holder: p.Credential.Subject,
		Slivers: toRecords(s.auth.Name, placed), Key: key}
	if len(placed) > 0 && p.TTLSeconds > 0 {
		rec.Expiry = s.cfg.Now().Add(time.Duration(p.TTLSeconds * float64(time.Second))).UnixNano()
	}
	if len(placed) > 0 || key != "" {
		if err := s.storeAppend(rec); err != nil {
			// Memory must never run ahead of the log: return the placement
			// and forget the key, so the client's retry executes afresh —
			// just as it would against a server recovered from this log.
			s.auth.ReleaseSlivers(placed)
			err = fmt.Errorf("durable log append: %v", err)
			if entry != nil {
				s.dedup.abandon(key, entry, err.Error())
			}
			return nil, err
		}
	}
	// Completing the key inside the durable region means any snapshot cut
	// by a later append (which must wait for durableMu) already sees it.
	_ = s.apply(rec)
	return &ReserveResponse{Slivers: rec.Slivers}, nil
}

// handleRelease frees locally held slivers of a federated slice. A keyed
// release is idempotent: retrying a release whose response was lost must
// not decrement node load twice, or capacity leaks to other slices.
func (s *Server) handleRelease(p ReleaseRequest) (*Empty, error) {
	if err := s.verify(p.Credential); err != nil {
		return nil, err
	}
	var key string
	if p.IdempotencyKey != "" {
		key = "release:" + p.IdempotencyKey
		e, claimed := s.dedup.claim(key)
		if !claimed {
			<-e.done
			s.metrics.dedupReplays.With(MethodRelease).Inc()
			s.log.Debugf("sfa[%s]: release dedup replay for key %q", s.auth.Name, p.IdempotencyKey)
			if e.errMsg != "" {
				return nil, errors.New(e.errMsg)
			}
			return &Empty{}, nil
		}
	}
	var svs []planetlab.Sliver
	for _, rec := range p.Slivers {
		if rec.Authority != s.auth.Name {
			continue
		}
		svs = append(svs, planetlab.Sliver{
			SliceName: p.SliceName, SiteID: rec.SiteID, NodeID: rec.NodeID,
		})
	}
	// Release only slivers this server still tracks as held: if the lease
	// reaper or a racing duplicate already freed them, a second node-load
	// decrement would free capacity still held by other slices. Trimming
	// also settles the lease so released slivers are not re-freed at
	// expiry.
	s.storeLock()
	defer s.storeUnlock()
	rec := Record{Op: OpRelease, Slice: p.SliceName, Key: key,
		Slivers: toRecords(s.auth.Name, s.leases.held(p.SliceName, svs))}
	if len(rec.Slivers) > 0 || key != "" {
		if err := s.storeAppend(rec); err != nil {
			// A release cannot be undone without re-placing, so prefer
			// availability: the worst a lost release record costs is
			// capacity held until the lease TTL reaps it after recovery.
			s.log.Errorf("sfa[%s]: wal append (release %s): %v", s.auth.Name, p.SliceName, err)
		}
	}
	_ = s.apply(rec)
	return &Empty{}, nil
}

// handleCreateSlice embeds a slice across the federation: local sites first,
// then peers until the diversity threshold is met.
func (s *Server) handleCreateSlice(p SliceRequest) (*SliceResponse, error) {
	if err := s.verify(p.Credential); err != nil {
		return nil, err
	}
	sp := s.obsreg.StartSpan("sfa.embed").Attr("slice", p.Name)
	defer sp.End()
	per := p.SliversPerSite
	if per <= 0 {
		per = 1
	}
	spec := planetlab.SliceSpec{
		Name: p.Name, Owner: p.Owner,
		MinSites: 0, MaxSites: p.MaxSites, SliversPerSite: per,
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if p.MinSites < 0 {
		return nil, fmt.Errorf("negative min_sites")
	}
	if _, exists := s.auth.GetSlice(p.Name); exists {
		return nil, fmt.Errorf("slice %s already exists", p.Name)
	}

	maxSites := p.MaxSites
	var localSlivers []planetlab.Sliver
	var remote []SliverRecord
	sitesGot := 0

	abort := func() {
		s.auth.ReleaseSlivers(localSlivers)
		s.releaseRemote(p.Name, remote)
	}

	// Local placement first.
	for _, siteID := range s.auth.AvailableSites(per) {
		if maxSites > 0 && sitesGot >= maxSites {
			break
		}
		svs, err := s.auth.ReserveSlivers(p.Name, siteID, per)
		if err != nil {
			continue
		}
		localSlivers = append(localSlivers, svs...)
		sitesGot++
	}

	// Peers, in deterministic order, until the threshold (and max) is met.
	cred := IssueCredential(s.secret, s.auth.Name, s.auth.Name, time.Minute)
	// One idempotency generation per CreateSlice invocation: client-level
	// retries of each Reserve below share a key, while a later lifecycle of
	// the same slice name (delete + recreate, or recreate after TTL expiry)
	// draws a fresh generation and executes anew instead of replaying this
	// lifecycle's cached outcome — including cached errors, which would
	// otherwise poison the slice name at that peer forever.
	gen := s.nextGen()
	for _, ph := range s.peerList() {
		name := ph.record.Name
		if st := s.health.state(name); st == PeerDown || st == PeerRecovering {
			// Degraded mode: place on the live sub-federation only. No
			// idempotency key is drawn, so nothing can replay at the peer
			// later.
			s.log.Debugf("sfa[%s]: skipping %s peer %s for slice %s", s.auth.Name, st, name, p.Name)
			continue
		}
		need := 1 << 20 // effectively unbounded
		if maxSites > 0 {
			need = maxSites - sitesGot
			if need <= 0 {
				break
			}
		}
		req := ReserveRequest{
			SliceName: p.Name, Sites: need, PerSite: per,
			// One logical reservation per (coordinator, slice lifecycle,
			// peer): retries of this call dedup server-side.
			IdempotencyKey: fmt.Sprintf("%s/%s#%d@%s", s.auth.Name, p.Name, gen, name),
			TTLSeconds:     p.TTLSeconds,
		}
		queued := req // credential-free copy; reconciliation re-signs it
		req.Credential = cred
		var rr ReserveResponse
		err := s.callPeer(name, ph.client, MethodReserve, req, &rr)
		if err != nil {
			s.log.Errorf("sfa[%s]: reserve at %s failed: %v", s.auth.Name, name, err)
			if isTransportFailure(err) {
				// The request may or may not have reached the peer. Queue
				// it under its original key: reconciliation replays it
				// (dedup settles which case happened) and then retires the
				// resulting orphan slivers, since this slice commits
				// without them.
				s.recon.enqueue(name, pendingOp{method: MethodReserve, slice: p.Name, key: queued.IdempotencyKey, reserve: &queued})
				s.setBacklogGauge(name)
			}
			continue
		}
		siteSeen := map[string]bool{}
		for _, sv := range rr.Slivers {
			if !siteSeen[sv.SiteID] {
				siteSeen[sv.SiteID] = true
				sitesGot++
			}
		}
		remote = append(remote, rr.Slivers...)
	}

	if sitesGot < p.MinSites {
		abort()
		return nil, fmt.Errorf("federation can offer %d sites, slice needs %d", sitesGot, p.MinSites)
	}

	rec := Record{Op: OpCreateSlice, Slice: p.Name,
		Spec:    &SliceSpecState{Name: p.Name, Owner: p.Owner, MinSites: p.MinSites, MaxSites: p.MaxSites, SliversPerSite: per},
		Slivers: toRecords(s.auth.Name, localSlivers), Remote: remote}
	if p.TTLSeconds > 0 {
		// Lease the whole slice for the experiment's holding time; the
		// reaper deletes it (and releases remote slivers) at expiry.
		rec.Expiry = s.cfg.Now().Add(time.Duration(p.TTLSeconds * float64(time.Second))).UnixNano()
	}
	s.storeLock()
	if _, exists := s.auth.GetSlice(p.Name); exists {
		s.storeUnlock()
		abort()
		return nil, fmt.Errorf("planetlab: slice %s already exists", p.Name)
	}
	if err := s.storeAppend(rec); err != nil {
		s.storeUnlock()
		abort()
		return nil, fmt.Errorf("durable log append: %v", err)
	}
	// Without a store a concurrent create of the same name can still win
	// the adoption; with one, durableMu made the check above final.
	err := s.apply(rec)
	s.storeUnlock()
	if err != nil {
		abort()
		return nil, err
	}

	resp := &SliceResponse{Name: p.Name, Sites: sitesGot}
	resp.Slivers = append(append(resp.Slivers, rec.Slivers...), remote...)
	return resp, nil
}

func (s *Server) handleDeleteSlice(p DeleteRequest) (*Empty, error) {
	if err := s.verify(p.Credential); err != nil {
		return nil, err
	}
	s.storeLock()
	if _, ok := s.auth.GetSlice(p.Name); !ok {
		s.storeUnlock()
		return nil, fmt.Errorf("planetlab: no slice %s", p.Name)
	}
	remote := s.remoteRefsOf(p.Name)
	rec := Record{Op: OpDeleteSlice, Slice: p.Name}
	if err := s.storeAppend(rec); err != nil {
		// The deletion is not undoable; a lost delete record at worst
		// resurrects the slice at recovery until its lease expires.
		s.log.Errorf("sfa[%s]: wal append (delete %s): %v", s.auth.Name, p.Name, err)
	}
	_ = s.apply(rec)
	s.storeUnlock()
	s.releaseRemote(p.Name, remote)
	return &Empty{}, nil
}

// releaseRemote frees slivers held at peers, grouped per authority.
// Releases bound for down or recovering peers — and releases that fail at
// the transport level — are queued under their idempotency key for
// reconciliation to replay, so a partition never loses a release.
func (s *Server) releaseRemote(sliceName string, slivers []SliverRecord) {
	if len(slivers) == 0 {
		return
	}
	byPeer := map[string][]SliverRecord{}
	for _, sv := range slivers {
		byPeer[sv.Authority] = append(byPeer[sv.Authority], sv)
	}
	cred := IssueCredential(s.secret, s.auth.Name, s.auth.Name, time.Minute)
	// Fresh generation per invocation: retries of each Release below share
	// a key, but a later lifecycle's release of a recreated slice name is
	// never swallowed by this one's cached outcome.
	gen := s.nextGen()
	for _, name := range sortedKeys(byPeer) {
		svs := byPeer[name]
		s.mu.Lock()
		ph := s.peers[name]
		s.mu.Unlock()
		if ph == nil {
			s.log.Errorf("sfa[%s]: cannot release %d slivers at unknown peer %s", s.auth.Name, len(svs), name)
			continue
		}
		req := ReleaseRequest{
			SliceName: sliceName, Slivers: svs,
			// Retries of this release must not double-free at the peer.
			IdempotencyKey: fmt.Sprintf("%s/%s#%d@%s", s.auth.Name, sliceName, gen, name),
		}
		if st := s.health.state(name); st == PeerDown || st == PeerRecovering {
			// Known unreachable: queue instead of burning a call timeout.
			queued := req
			s.recon.enqueue(name, pendingOp{method: MethodRelease, slice: sliceName, key: req.IdempotencyKey, release: &queued})
			s.setBacklogGauge(name)
			s.log.Infof("sfa[%s]: queued release of %d slivers of %s for %s peer %s",
				s.auth.Name, len(svs), sliceName, st, name)
			continue
		}
		queued := req // credential-free copy; reconciliation re-signs it
		req.Credential = cred
		if err := s.callPeer(name, ph.client, MethodRelease, req, nil); err != nil {
			s.log.Errorf("sfa[%s]: release at %s: %v", s.auth.Name, name, err)
			if isTransportFailure(err) {
				s.recon.enqueue(name, pendingOp{method: MethodRelease, slice: sliceName, key: queued.IdempotencyKey, release: &queued})
				s.setBacklogGauge(name)
			}
		}
	}
}

// peerList snapshots peers sorted by name for deterministic embedding.
func (s *Server) peerList() []*peerHandle {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.peers))
	for n := range s.peers {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*peerHandle, 0, len(names))
	for _, n := range names {
		out = append(out, s.peers[n])
	}
	return out
}

// handleShares builds the federation's economic model from its own and its
// peers' advertised resources and computes value shares under the requested
// policy — the paper's method exposed as a network service.
//
// Unreachable peers degrade the computation instead of failing it: down
// and recovering peers (and any peer whose live listing fails at the
// transport level) are excluded from valuation, shares are computed over
// the live sub-federation, and the response carries the Partial marker
// with the excluded authorities. A down peer's last advertisement, when
// cached, still shapes the full model so the sub-federation is priced as
// a coalition of the same game; the demand profile never shrinks just
// because peers died.
func (s *Server) handleShares(p SharesRequest) (*SharesResponse, error) {
	sp := s.obsreg.StartSpan("sfa.shares").Attr("policy", p.Policy)
	defer sp.End()
	type contribution struct {
		name     string
		sites    int
		capacity float64 // per-site
		live     bool
	}
	var contribs []contribution

	// Own contribution.
	own := s.listResources()
	ownSites := len(own.Sites)
	ownCap := 0.0
	for _, site := range own.Sites {
		ownCap += float64(site.Capacity)
	}
	perSite := 0.0
	if ownSites > 0 {
		perSite = ownCap / float64(ownSites)
	}
	contribs = append(contribs, contribution{s.auth.Name, ownSites, perSite, true})

	// Peers' advertised resources.
	var down []string
	for _, ph := range s.peerList() {
		name := ph.record.Name
		var rl *ResourceList
		live := false
		if st := s.health.state(name); st == PeerDown || st == PeerRecovering {
			rl = s.cachedResources(name)
		} else {
			var fresh ResourceList
			err := s.callPeer(name, ph.client, MethodListResources, Empty{}, &fresh)
			switch {
			case err == nil:
				live = true
				rl = &fresh
				s.cacheResources(name, &fresh)
			case isTransportFailure(err):
				rl = s.cachedResources(name)
			default:
				return nil, fmt.Errorf("list resources at %s: %w", name, err)
			}
		}
		if rl == nil {
			// Unreachable and never successfully listed: nothing to model.
			down = append(down, name)
			continue
		}
		if !live {
			down = append(down, name)
		}
		sites := len(rl.Sites)
		capTotal := 0.0
		for _, site := range rl.Sites {
			capTotal += float64(site.Capacity)
		}
		per := 0.0
		if sites > 0 {
			per = capTotal / float64(sites)
		}
		contribs = append(contribs, contribution{rl.Authority, sites, per, live})
	}
	sort.Slice(contribs, func(i, j int) bool { return contribs[i].name < contribs[j].name })

	facilities := make([]core.Facility, len(contribs))
	for i, c := range contribs {
		facilities[i] = core.Facility{Name: c.name, Locations: c.sites, Resources: c.capacity}
	}
	demand := s.demand
	if demand == nil {
		// Default profile: one diversity-hungry experiment spanning half
		// the federation's sites (stale contributions included — demand
		// does not shrink with the live set).
		total := 0
		for _, c := range contribs {
			total += c.sites
		}
		wl, err := economics.NewWorkload(economics.DemandClass{
			Type: economics.ExperimentType{
				Name: "default", MinLocations: float64(total) / 2,
				MaxLocations: math.Inf(1), Resources: 1, HoldingTime: 1, Shape: 1,
			},
			Count: 1,
		})
		if err != nil {
			return nil, err
		}
		demand = wl
	}
	model, err := core.NewModel(facilities, demand)
	if err != nil {
		return nil, err
	}
	if len(down) > 0 {
		liveSet := map[string]bool{}
		for _, c := range contribs {
			if c.live {
				liveSet[c.name] = true
			}
		}
		sub, _, err := model.SubFederation(func(n string) bool { return liveSet[n] })
		if err != nil {
			return nil, err
		}
		model = sub
	}
	pol, err := core.PolicyByName(p.Policy)
	if err != nil {
		return nil, err
	}
	sharesVec, err := pol.Shares(model)
	if err != nil {
		return nil, err
	}
	resp := &SharesResponse{
		Policy:     pol.Name(),
		GrandValue: model.GrandValue(),
		Shares:     map[string]float64{},
	}
	for i, f := range model.Facilities {
		resp.Shares[f.Name] = sharesVec[i]
	}
	if len(down) > 0 {
		sort.Strings(down)
		resp.Partial = true
		resp.Down = down
	}
	return resp, nil
}

// handleUsage reports cumulative served slivers and the measured
// consumption shares they imply.
func (s *Server) handleUsage() *UsageResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	resp := &UsageResponse{
		Authority:         s.auth.Name,
		CumulativeSlivers: map[string]int{},
		MeasuredShares:    map[string]float64{},
		SlicesEmbedded:    s.embedded,
	}
	total := 0
	for name, n := range s.usage {
		resp.CumulativeSlivers[name] = n
		total += n
	}
	if total > 0 {
		for name, n := range s.usage {
			resp.MeasuredShares[name] = float64(n) / float64(total)
		}
	}
	return resp
}

// snapshotState captures the server's full durable state in canonical
// order. When a store is configured it is invoked at append boundaries
// (under durableMu), so the capture is a consistent cut.
func (s *Server) snapshotState() State {
	st := State{Seq: s.seq.Load()}
	slices := s.auth.SlicesSnapshot()
	s.mu.Lock()
	st.Embedded = s.embedded
	usage := map[string]int{}
	for name, n := range s.usage {
		if n != 0 {
			usage[name] = n
		}
	}
	if len(usage) > 0 {
		st.Usage = usage
	}
	remoteRefs := make(map[string][]SliverRecord, len(s.remoteRefs))
	for name, svs := range s.remoteRefs {
		remoteRefs[name] = append([]SliverRecord(nil), svs...)
	}
	s.mu.Unlock()
	for _, sl := range slices {
		st.Slices = append(st.Slices, SliceState{
			Spec:   *specState(sl.Spec),
			Local:  toRecords(s.auth.Name, sl.Slivers),
			Remote: remoteRefs[sl.Spec.Name],
		})
	}
	for _, l := range s.leases.snapshot() {
		ls := LeaseState{Slice: l.slice, Kind: int(l.kind), Holder: l.holder,
			Slivers: toRecords(s.auth.Name, l.slivers)}
		if !l.expiry.IsZero() {
			ls.Expiry = l.expiry.UnixNano()
		}
		st.Leases = append(st.Leases, ls)
	}
	st.Dedup = s.dedup.snapshot()
	st.canonicalize()
	return st
}

// Restore loads recovered durable state into a freshly built server. It
// must run before Start, while nothing else touches the server. It first
// loads the snapshot — the inverse of snapshotState — then replays the log
// tail through apply, charging each placement's recorded nodes first. Lease
// expiries are absolute timestamps, so holdings that expired during the
// outage are reaped on the first reaper tick after Start rather than
// silently resurrected. Peers first met after a restore start down (see
// healthTracker.ensure), so reconciliation retires any slivers a peer
// acknowledged for a slice whose commit the crash lost.
func (s *Server) Restore(st *State) error {
	if st == nil {
		return nil
	}
	s.seq.Store(st.Seq)
	for _, sl := range st.Slices {
		slivers := toSlivers(sl.Spec.Name, sl.Local)
		// Re-apply the recorded placements (node load), then re-adopt the
		// slice so DeleteSlice frees them again.
		s.auth.RestoreSlivers(slivers)
		if err := s.auth.AdoptSlice(&planetlab.Slice{Spec: sl.Spec.spec(), Slivers: slivers}); err != nil {
			return fmt.Errorf("sfa: restore slice %s: %w", sl.Spec.Name, err)
		}
		if len(sl.Remote) > 0 {
			s.mu.Lock()
			s.remoteRefs[sl.Spec.Name] = sl.Remote
			s.mu.Unlock()
		}
	}
	s.mu.Lock()
	s.embedded = st.Embedded
	for name, n := range st.Usage {
		s.usage[name] = n
	}
	s.mu.Unlock()
	for _, l := range st.Leases {
		// A slice lease carries slivers only when a reserve merged into
		// it; either way the lease's own slivers are charged here.
		slivers := toSlivers(l.Slice, l.Slivers)
		s.auth.RestoreSlivers(slivers)
		s.leases.add(l.Slice, leaseKind(l.Kind), l.Holder, slivers, expiryTime(l.Expiry))
	}
	for _, e := range st.Dedup {
		var resp interface{}
		switch {
		case e.Err != "":
			// Cached failures replay as errors; the response value is unused.
		case strings.HasPrefix(e.Key, "release:"):
			resp = &Empty{}
		default:
			resp = &ReserveResponse{Slivers: e.Slivers}
		}
		s.dedup.complete(e.Key, resp, e.Err)
	}
	for i, rec := range st.tail {
		if rec.Op == OpReserve || rec.Op == OpCreateSlice {
			s.auth.RestoreSlivers(toSlivers(rec.Slice, rec.Slivers))
		}
		if err := s.apply(rec); err != nil {
			return fmt.Errorf("sfa: replay log record %d after the snapshot: %w", i+1, err)
		}
	}
	s.health.resumed = true
	s.log.Infof("sfa[%s]: restored durable state: snapshot of %d slices, %d leases, %d dedup keys, seq %d; replayed %d log records",
		s.auth.Name, len(st.Slices), len(st.Leases), len(st.Dedup), st.Seq, len(st.tail))
	return nil
}

// PeerWith initiates peering with a remote registry at addr: it dials,
// introduces itself, and records the remote as a peer, so federation flows
// both ways after the remote's back-dial.
func (s *Server) PeerWith(addr string) error {
	client := s.newPeerClient(addr)
	s.mu.Lock()
	rec := s.record
	rec.Sites = s.auth.SiteCount()
	s.mu.Unlock()
	cred := IssueCredential(s.secret, s.auth.Name, s.auth.Name, time.Minute)
	var resp PeerResponse
	if err := client.Call(MethodPeer, PeerRequest{Record: rec, Credential: cred}, &resp); err != nil {
		_ = client.Close()
		return err
	}
	s.mu.Lock()
	if old, ok := s.peers[resp.Record.Name]; ok && old.client != nil {
		_ = old.client.Close()
	}
	s.peers[resp.Record.Name] = &peerHandle{record: resp.Record, client: client}
	s.metrics.peers.Set(float64(len(s.peers)))
	s.mu.Unlock()
	s.health.ensure(resp.Record.Name)
	s.log.Infof("sfa[%s]: peered with %s (%s)", s.auth.Name, resp.Record.Name, resp.Record.Addr)
	return nil
}

// Peers returns the names of current peers.
func (s *Server) Peers() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for n := range s.peers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
