package sfa

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"sync"
	"testing"
	"time"

	"fedshare/internal/obs"
)

// memStore is an in-memory Store that records every appended record and
// fails the next failAppends appends with "disk full".
type memStore struct {
	mu          sync.Mutex
	failAppends int
	records     []Record
}

func (m *memStore) Append(rec Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failAppends > 0 {
		m.failAppends--
		return errors.New("disk full")
	}
	m.records = append(m.records, rec)
	return nil
}

func (m *memStore) MaybeSnapshot() error           { return nil }
func (m *memStore) SetSnapshotSource(func() State) {}
func (m *memStore) Close() error                   { return nil }

// reserveKeyed places one sliver under key and fails the test on error.
func reserveKeyed(t *testing.T, srv *Server, key string) *ReserveResponse {
	t.Helper()
	resp, err := srv.handleReserve(ReserveRequest{
		Credential: userCred(), SliceName: "s-" + key, Sites: 1, PerSite: 1,
		IdempotencyKey: key,
	})
	if err != nil {
		t.Fatalf("reserve %q: %v", key, err)
	}
	return resp
}

// dedupKeys lists the completed keys a server remembers, oldest first.
func dedupKeys(srv *Server) []string {
	var keys []string
	for _, e := range srv.dedup.snapshot() {
		keys = append(keys, e.Key)
	}
	return keys
}

// TestRecoveryDedupKeepsNewestKeys: a bounded idempotency table evicts its
// oldest outcomes, and a recovered server must evict the same ones as the
// server that crashed. Sorting the recovered keys (or replaying them in
// any order but the log's) would keep an older key and forget a newer one,
// so a retry of the newer key would execute twice.
func TestRecoveryDedupKeepsNewestKeys(t *testing.T) {
	for _, tc := range []struct {
		name          string
		snapshotEvery int
		before, after []string // keys reserved before the crash and after recovery
	}{
		{"log-replay", -1, []string{"b", "a", "c"}, nil},
		{"snapshot", 1, []string{"b", "a"}, []string{"c"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := newFakeClock()
			dir := t.TempDir()
			open := func() (*Server, *DurableStore) {
				store, st, err := OpenDurableStore(DurableOptions{
					Dir: dir, SnapshotEvery: tc.snapshotEvery, Registry: obs.NewRegistry(),
				})
				if err != nil {
					t.Fatal(err)
				}
				srv := NewServer(buildAuthority(t, "DUR", 4, 2, 4), testSecret,
					WithLogger(quietLog), WithStore(store), WithMetrics(obs.NewRegistry()),
					WithConfig(ServerConfig{Now: clock.Now, DedupCapacity: 2}))
				t.Cleanup(func() { _ = srv.Close() })
				if err := srv.Restore(st); err != nil {
					t.Fatalf("restore: %v", err)
				}
				return srv, store
			}
			srv, store := open()
			for _, k := range tc.before {
				reserveKeyed(t, srv, k)
			}
			_ = store.log.Close() // crash: no final snapshot
			rec, store2 := open()
			defer store2.Close()
			for _, k := range tc.after {
				reserveKeyed(t, rec, k)
			}
			if got, want := dedupKeys(rec), []string{"reserve:a", "reserve:c"}; !reflect.DeepEqual(got, want) {
				t.Errorf("recovered dedup keys = %v, want %v (the two newest)", got, want)
			}
			util := rec.auth.Utilization()
			reserveKeyed(t, rec, "a")
			if n := counterValue(rec.obsreg, "fedshare_sfa_dedup_replays_total", MethodReserve); n != 1 {
				t.Errorf("retry of key a after recovery executed instead of replaying (replays = %d)", n)
			}
			if u := rec.auth.Utilization(); u != util {
				t.Errorf("retry of key a moved utilization %g -> %g", util, u)
			}
		})
	}
}

// TestIdempotencyKeyRetriesAfterFailedAppend: a reserve the log refused
// was never executed, so its key must not remember the refusal. A retry
// executes, exactly as it would against a server recovered from that log.
func TestIdempotencyKeyRetriesAfterFailedAppend(t *testing.T) {
	store := &memStore{failAppends: 1}
	srv := NewServer(buildAuthority(t, "DUR", 2, 1, 2), testSecret,
		WithLogger(quietLog), WithStore(store), WithMetrics(obs.NewRegistry()))
	defer srv.Close()
	req := ReserveRequest{Credential: userCred(), SliceName: "s", Sites: 1, PerSite: 1, IdempotencyKey: "k"}
	if _, err := srv.handleReserve(req); err == nil {
		t.Fatal("reserve with a failing log append succeeded")
	}
	if u := srv.auth.Utilization(); u != 0 {
		t.Errorf("refused reserve left utilization %g, want 0", u)
	}
	resp, err := srv.handleReserve(req)
	if err != nil {
		t.Fatalf("retry after the failed append: %v", err)
	}
	if len(resp.Slivers) != 1 {
		t.Errorf("retry placed %d slivers, want 1", len(resp.Slivers))
	}
	if n := len(store.records); n != 1 {
		t.Errorf("log holds %d records, want the retry's 1", n)
	}
}

// crashingStore forwards to a real store until it sees an append of op;
// that append blocks until release is closed, as if the process died
// before the record reached the log.
type crashingStore struct {
	Store
	op      string
	crashed chan struct{}
	release chan struct{}
}

func (c *crashingStore) Append(rec Record) error {
	if rec.Op == c.op {
		close(c.crashed)
		<-c.release
		return errors.New("process killed")
	}
	return c.Store.Append(rec)
}

// TestRecoveryRetiresOrphanedPeerSlivers: a coordinator that crashes after
// a peer acknowledged its Reserve but before the slice commit reached the
// log has no record of that holding. Without a TTL the peer would hold the
// slivers forever; the recovered coordinator must reconcile with the peer
// before trusting it, which retires the orphan.
func TestRecoveryRetiresOrphanedPeerSlivers(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	peer := startServer(t, buildAuthority(t, "P", 2, 1, 4), WithMetrics(obs.NewRegistry()))
	cfg := ServerConfig{Now: clock.Now, LeaseReapInterval: time.Hour, ProbeInterval: time.Second}

	ds, _, err := OpenDurableStore(DurableOptions{Dir: dir, SnapshotEvery: -1, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	crash := &crashingStore{Store: ds, op: OpCreateSlice, crashed: make(chan struct{}), release: make(chan struct{})}
	coord := startServer(t, buildAuthority(t, "C", 1, 1, 4),
		WithStore(crash), WithMetrics(obs.NewRegistry()), WithConfig(cfg))
	if err := coord.PeerWith(peer.Addr()); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := coord.handleCreateSlice(SliceRequest{
			Credential: userCred(), Name: "orphan", Owner: "x", MinSites: 2, SliversPerSite: 1,
		})
		done <- err
	}()
	t.Cleanup(func() {
		close(crash.release)
		<-done
	})
	<-crash.crashed
	_ = ds.log.Close() // kill -9: the commit record never lands
	_ = coord.Close()
	if n := len(peer.leases.holdingsFor("C")); n != 1 {
		t.Fatalf("peer holds %d slices for C after the crash, want the orphan", n)
	}

	ds2, st, err := OpenDurableStore(DurableOptions{Dir: dir, SnapshotEvery: -1, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	rec := NewServer(buildAuthority(t, "C", 1, 1, 4), testSecret,
		WithLogger(quietLog), WithStore(ds2), WithMetrics(obs.NewRegistry()), WithConfig(cfg))
	if err := rec.Restore(st); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if err := rec.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if err := rec.PeerWith(peer.Addr()); err != nil {
		t.Fatal(err)
	}
	clock.Advance(3 * time.Second)
	rec.probePeers()
	if h := peer.leases.holdingsFor("C"); len(h) != 0 {
		t.Errorf("peer still holds %d orphaned slices for the recovered coordinator: %+v", len(h), h)
	}
	if u := peer.auth.Utilization(); u != 0 {
		t.Errorf("peer utilization after reconcile = %g, want 0", u)
	}
	if st := rec.PeerLifecycleState("P"); st != PeerHealthy {
		t.Errorf("peer state after reconcile = %s, want healthy", st)
	}
}

// replayTarget is a fresh memory-only server with driveLifecycle's
// topology, for replaying record sequences into.
func replayTarget(t testing.TB) *Server {
	srv := NewServer(buildAuthority(t, "DUR", 4, 2, 4), testSecret,
		WithLogger(quietLog), WithMetrics(obs.NewRegistry()))
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

// FuzzRecoveryReplay replays arbitrary record sequences (JSON records,
// one after another) into a fresh server. Replay may refuse a record that
// cannot follow the state before it, but it must never panic; and when it
// succeeds, the state must survive a snapshot cut at that point — the
// periodic snapshot a live server would write — or the data directory
// would stop being recoverable.
func FuzzRecoveryReplay(f *testing.F) {
	store := &memStore{}
	clock := newFakeClock()
	seed := NewServer(buildAuthority(f, "DUR", 4, 2, 4), testSecret,
		WithLogger(quietLog), WithStore(store), WithMetrics(obs.NewRegistry()),
		WithConfig(ServerConfig{Now: clock.Now}))
	driveLifecycle(f, seed, clock)
	_ = seed.Close()
	var log bytes.Buffer
	enc := json.NewEncoder(&log)
	for _, rec := range store.records {
		if err := enc.Encode(rec); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(log.Bytes())
	// Records no handler writes in this order: a reserve merged into a
	// slice's lease, a duplicate key, an amend and release of that slice,
	// then its expiry.
	f.Add([]byte(`{"op":"create_slice","slice":"x","spec":{"name":"x","per":1},"slivers":[{"authority":"DUR","site_id":"DUR-site0","node_id":"node0"}],"remote":[{"authority":"P","site_id":"P-site0","node_id":"node0"}],"expiry":5}
{"op":"reserve","slice":"x","holder":"C","key":"reserve:k","slivers":[{"authority":"DUR","site_id":"DUR-site1","node_id":"node0"}],"expiry":9}
{"op":"reserve","slice":"x","key":"reserve:k","err":"refused"}
{"op":"amend_remote","slice":"x"}
{"op":"release","slice":"x","key":"release:k","slivers":[{"authority":"DUR","site_id":"DUR-site1","node_id":"node0"}]}
{"op":"gen","gen":7}
{"op":"expire","slice":"x","kind":1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var tail []Record
		for dec := json.NewDecoder(bytes.NewReader(data)); ; {
			var rec Record
			if err := dec.Decode(&rec); err == io.EOF {
				break
			} else if err != nil {
				return
			}
			tail = append(tail, rec)
		}
		srv := replayTarget(t)
		if err := srv.Restore(&State{tail: tail}); err != nil {
			return
		}
		want := srv.snapshotState()
		b, err := json.Marshal(&want)
		if err != nil {
			t.Fatalf("encode snapshot: %v", err)
		}
		var snap State
		if err := json.Unmarshal(b, &snap); err != nil {
			t.Fatalf("decode snapshot: %v", err)
		}
		cut := replayTarget(t)
		if err := cut.Restore(&snap); err != nil {
			t.Fatalf("snapshot of a replayed state does not restore: %v\nsnapshot %s", err, b)
		}
		if got := cut.snapshotState(); !reflect.DeepEqual(got, want) {
			t.Fatalf("snapshot restore differs from replay:\n got %+v\nwant %+v", got, want)
		}
		if got, want := cut.auth.Utilization(), srv.auth.Utilization(); got != want {
			t.Fatalf("snapshot restore utilization %g, replay %g", got, want)
		}
	})
}
