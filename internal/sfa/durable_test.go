package sfa

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"fedshare/internal/faultnet"
	"fedshare/internal/obs"
	"fedshare/internal/wal"
)

// durableServer builds a server backed by a WAL store in dir, without
// starting the network listener: handlers are driven directly so request
// order is deterministic. The returned store is the one the server writes
// through; crash it with store.log.Close() to simulate kill -9 (no final
// snapshot, no graceful close).
func durableServer(t *testing.T, dir string, snapshotEvery int, clock *fakeClock) (*Server, *DurableStore, *State) {
	t.Helper()
	store, st, err := OpenDurableStore(DurableOptions{
		Dir: dir, SnapshotEvery: snapshotEvery, Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("open durable store: %v", err)
	}
	srv := NewServer(buildAuthority(t, "DUR", 4, 2, 4), testSecret,
		WithLogger(quietLog),
		WithStore(store),
		WithMetrics(obs.NewRegistry()),
		WithConfig(ServerConfig{Now: clock.Now}))
	t.Cleanup(func() { _ = srv.Close() })
	return srv, store, st
}

// driveLifecycle runs one deterministic mixed workload — keyed and unkeyed
// reserves, duplicate replays, partial and full releases, slice creation
// and deletion, and lease expiry via the reaper — against srv. The same
// sequence applied to two servers with the same topology and clock must
// leave them in identical durable state.
func driveLifecycle(t testing.TB, srv *Server, clock *fakeClock) {
	t.Helper()
	reserve := func(slice, key string, sites, per int, ttl float64) *ReserveResponse {
		t.Helper()
		resp, err := srv.handleReserve(ReserveRequest{
			Credential: userCred(), SliceName: slice, Sites: sites, PerSite: per,
			IdempotencyKey: key, TTLSeconds: ttl,
		})
		if err != nil {
			t.Fatalf("reserve %s (key %q): %v", slice, key, err)
		}
		return resp
	}
	r1 := reserve("web", "k1", 2, 1, 30)
	if len(r1.Slivers) != 2 {
		t.Fatalf("web reserve placed %d slivers, want 2", len(r1.Slivers))
	}
	reserve("web", "k2", 1, 1, 0) // merge: indefinite expiry dominates
	dup := reserve("web", "k1", 2, 1, 30)
	if !reflect.DeepEqual(dup, r1) {
		t.Fatalf("duplicate k1 = %+v, want replay of %+v", dup, r1)
	}
	reserve("db", "k3", 1, 2, 10)

	if _, err := srv.handleRelease(ReleaseRequest{
		Credential: userCred(), SliceName: "web", Slivers: r1.Slivers[:1],
		IdempotencyKey: "rk1",
	}); err != nil {
		t.Fatalf("release: %v", err)
	}

	create := func(name string, min int, ttl float64) {
		t.Helper()
		if _, err := srv.handleCreateSlice(SliceRequest{
			Credential: userCred(), Name: name, Owner: "tester",
			MinSites: min, SliversPerSite: 1, TTLSeconds: ttl,
		}); err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
	}
	create("big", 2, 60)
	create("tmp", 1, 5)

	clock.Advance(12 * time.Second) // expires db (TTL 10) and tmp (TTL 5)
	srv.reapExpiredLeases()

	if _, err := srv.handleDeleteSlice(DeleteRequest{Credential: userCred(), Name: "big"}); err != nil {
		t.Fatalf("delete big: %v", err)
	}
	reserve("cache", "k4", 1, 1, 100)
	reserve("cache", "", 1, 1, 0) // unkeyed merge
}

// TestRecoveryEquivalence is the central durability contract: a server
// recovered from its WAL (after a crash that skipped the final snapshot)
// holds exactly the state of a memory-only twin that executed the same
// request sequence and never crashed. Runs with snapshots disabled (pure
// log replay), cutting every 3 appends (snapshot + suffix replay), and
// every append (pure snapshot load).
func TestRecoveryEquivalence(t *testing.T) {
	for _, every := range []int{-1, 3, 1} {
		t.Run(fmt.Sprintf("snapshotEvery=%d", every), func(t *testing.T) {
			clock := newFakeClock()
			dir := t.TempDir()
			srv, store, st := durableServer(t, dir, every, clock)
			if st != nil {
				t.Fatalf("fresh directory recovered non-nil state: %+v", st)
			}
			mem := NewServer(buildAuthority(t, "DUR", 4, 2, 4), testSecret,
				WithLogger(quietLog), WithMetrics(obs.NewRegistry()),
				WithConfig(ServerConfig{Now: clock.Now}))

			// The same clock drives both, so expiries are byte-identical.
			driveLifecycle(t, srv, clock)
			clock.mu.Lock()
			clock.t = time.Unix(1_000_000, 0) // rewind for the twin
			clock.mu.Unlock()
			driveLifecycle(t, mem, clock)

			want := mem.snapshotState()
			if got := srv.snapshotState(); !reflect.DeepEqual(got, want) {
				t.Fatalf("durable server diverged from memory twin before crash:\n got %+v\nwant %+v", got, want)
			}

			// Crash: close the log file handles without the final snapshot,
			// then recover into a fresh server.
			_ = store.log.Close()
			rec, store2, rst := durableServer(t, dir, every, clock)
			defer store2.Close()
			if rst == nil {
				t.Fatal("recovery returned nil state for a populated directory")
			}
			if err := rec.Restore(rst); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if got := rec.snapshotState(); !reflect.DeepEqual(got, want) {
				t.Errorf("recovered state differs from never-crashed twin:\n got %+v\nwant %+v", got, want)
			}
			if got, want := rec.auth.Utilization(), mem.auth.Utilization(); got != want {
				t.Errorf("recovered utilization = %g, want %g", got, want)
			}

			// The recovered server must replay cached outcomes for old keys…
			r1, err := rec.handleReserve(ReserveRequest{
				Credential: userCred(), SliceName: "web", Sites: 2, PerSite: 1,
				IdempotencyKey: "k1", TTLSeconds: 30,
			})
			if err != nil {
				t.Fatalf("replay k1 after recovery: %v", err)
			}
			if n := counterValue(rec.obsreg, "fedshare_sfa_dedup_replays_total", MethodReserve); n != 1 {
				t.Errorf("k1 after recovery executed instead of replaying (replays = %d)", n)
			}
			if len(r1.Slivers) != 2 {
				t.Errorf("replayed k1 returned %d slivers, want the original 2", len(r1.Slivers))
			}
			// …and keep serving new work.
			if _, err := rec.handleReserve(ReserveRequest{
				Credential: userCred(), SliceName: "fresh", Sites: 1, PerSite: 1,
				IdempotencyKey: "k-new",
			}); err != nil {
				t.Errorf("new reserve after recovery: %v", err)
			}
		})
	}
}

// TestRecoveryEquivalenceUnderChaos exercises recovery against state built
// by genuinely concurrent, fault-injected traffic: the log order — not the
// request arrival order — defines the durable state, and replaying it must
// reproduce the live server's final state exactly. Seeds follow the chaos
// suite's convention (override with FEDSHARE_CHAOS_SEED).
func TestRecoveryEquivalenceUnderChaos(t *testing.T) {
	seed := chaosSeed(t)
	const clients, calls = 4, 6
	clock := newFakeClock()
	dir := t.TempDir()
	store, st, err := OpenDurableStore(DurableOptions{
		Dir: dir, SnapshotEvery: 5, Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st != nil {
		t.Fatalf("fresh dir returned state %+v", st)
	}
	reg := obs.NewRegistry()
	srv := startServer(t, buildAuthority(t, "DUR", 8, 2, 8),
		WithStore(store),
		WithMetrics(reg),
		WithConfig(ServerConfig{
			IdleReadDeadline:  500 * time.Millisecond,
			LeaseReapInterval: 2 * time.Millisecond,
			Now:               clock.Now,
		}))

	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		i := i
		dialer := faultnet.NewDialer(faultnet.Config{
			Seed:  seed*1_000_003 + uint64(i)*7919,
			PDrop: 0.06, PPartial: 0.05, PCorrupt: 0.05, PDropResponse: 0.10,
			PLatency: 0.10, MaxLatency: 2 * time.Millisecond,
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewClient(ClientConfig{
				Addr: srv.Addr(), DialFunc: dialer.Dial,
				CallTimeout: 2 * time.Second, MaxAttempts: 30,
				RetryBase: time.Millisecond, RetryMax: 4 * time.Millisecond,
				BreakerThreshold: -1, Seed: seed + uint64(i), Registry: reg,
			})
			defer c.Close()
			for k := 0; k < calls; k++ {
				slice := fmt.Sprintf("dur-c%d-s%d", i, k)
				var rr ReserveResponse
				if err := c.Call(MethodReserve, ReserveRequest{
					Credential: userCred(), SliceName: slice, Sites: 1, PerSite: 1,
					IdempotencyKey: slice + "/reserve", TTLSeconds: 30,
				}, &rr); err != nil {
					t.Errorf("client %d reserve %d: %v", i, k, err)
					continue
				}
				if k%2 != 0 {
					continue
				}
				if err := c.Call(MethodRelease, ReleaseRequest{
					Credential: userCred(), SliceName: slice, Slivers: rr.Slivers,
					IdempotencyKey: slice + "/release",
				}, nil); err != nil {
					t.Errorf("client %d release %d: %v", i, k, err)
				}
			}
		}()
	}
	wg.Wait()

	want := srv.snapshotState()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	_ = store.log.Close() // crash: no final snapshot

	store2, rst, err := OpenDurableStore(DurableOptions{
		Dir: dir, SnapshotEvery: 5, Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer store2.Close()
	rec := NewServer(buildAuthority(t, "DUR", 8, 2, 8), testSecret,
		WithLogger(quietLog), WithStore(store2),
		WithMetrics(obs.NewRegistry()),
		WithConfig(ServerConfig{Now: clock.Now}))
	defer rec.Close()
	if err := rec.Restore(rst); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := rec.snapshotState(); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered state differs from live state at seed %d:\n got %+v\nwant %+v", seed, got, want)
	}

	// Every key from the crashed run must replay, not re-execute: counter
	// identity dispatched == replayed on the recovered server.
	if err := rec.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c := dialServer(t, rec)
	for i := 0; i < clients; i++ {
		for k := 0; k < calls; k++ {
			slice := fmt.Sprintf("dur-c%d-s%d", i, k)
			var rr ReserveResponse
			if err := c.Call(MethodReserve, ReserveRequest{
				Credential: userCred(), SliceName: slice, Sites: 1, PerSite: 1,
				IdempotencyKey: slice + "/reserve", TTLSeconds: 30,
			}, &rr); err != nil {
				t.Fatalf("post-recovery reserve %s: %v", slice, err)
			}
		}
	}
	dispatched := counterValue(rec.obsreg, "fedshare_sfa_requests_total", MethodReserve)
	replayed := counterValue(rec.obsreg, "fedshare_sfa_dedup_replays_total", MethodReserve)
	if dispatched != int64(clients*calls) || replayed != dispatched {
		t.Errorf("post-recovery: dispatched %d, replayed %d — want every request to replay (%d)",
			dispatched, replayed, clients*calls)
	}
	// Utilization must converge once the recovered leases expire.
	clock.Advance(time.Minute)
	rec.reapExpiredLeases()
	if u := rec.auth.Utilization(); u != 0 {
		t.Errorf("utilization after lease expiry = %g, want 0", u)
	}
}

// TestDurableFsyncAlways covers the strictest policy end to end: every
// append fsyncs before the response is acknowledged.
func TestDurableFsyncAlways(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	store, _, err := OpenDurableStore(DurableOptions{
		Dir: dir, Fsync: wal.FsyncAlways, SnapshotEvery: -1, Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(buildAuthority(t, "DUR", 2, 1, 2), testSecret,
		WithLogger(quietLog), WithStore(store),
		WithMetrics(obs.NewRegistry()), WithConfig(ServerConfig{Now: clock.Now}))
	defer srv.Close()
	if _, err := srv.handleReserve(ReserveRequest{
		Credential: userCred(), SliceName: "s", Sites: 1, PerSite: 1, IdempotencyKey: "k",
	}); err != nil {
		t.Fatal(err)
	}
	want := srv.snapshotState()
	_ = store.log.Close()
	store2, rst, err := OpenDurableStore(DurableOptions{Dir: dir, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	rec := NewServer(buildAuthority(t, "DUR", 2, 1, 2), testSecret,
		WithLogger(quietLog), WithStore(store2),
		WithMetrics(obs.NewRegistry()), WithConfig(ServerConfig{Now: clock.Now}))
	defer rec.Close()
	if err := rec.Restore(rst); err != nil {
		t.Fatal(err)
	}
	if got := rec.snapshotState(); !reflect.DeepEqual(got, want) {
		t.Errorf("fsync=always recovery mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestDurableCloseSnapshotsCleanly: a graceful Close cuts a final snapshot,
// so the next open recovers purely from it (no suffix replay) and the state
// still matches.
func TestDurableCloseSnapshotsCleanly(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	srv, store, _ := durableServer(t, dir, -1, clock)
	driveLifecycle(t, srv, clock)
	want := srv.snapshotState()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("graceful close: %v", err)
	}
	store2, rst, err := OpenDurableStore(DurableOptions{Dir: dir, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if rst == nil {
		t.Fatal("nil state after graceful close")
	}
	rec := NewServer(buildAuthority(t, "DUR", 4, 2, 4), testSecret,
		WithLogger(quietLog), WithStore(store2),
		WithMetrics(obs.NewRegistry()), WithConfig(ServerConfig{Now: clock.Now}))
	defer rec.Close()
	if err := rec.Restore(rst); err != nil {
		t.Fatal(err)
	}
	if got := rec.snapshotState(); !reflect.DeepEqual(got, want) {
		t.Errorf("post-graceful-close recovery mismatch:\n got %+v\nwant %+v", got, want)
	}
}
