package sfa

import (
	"sync"
	"time"

	"fedshare/internal/planetlab"
)

// --- Idempotency dedup ---

// dedupEntry is the outcome of one keyed request (Reserve or Release).
// done is closed once resp or errMsg is final; concurrent duplicates wait
// on it and replay.
type dedupEntry struct {
	done     chan struct{}
	resp     interface{}
	errMsg   string
	complete bool // guarded by the table's mu
}

// dedupTable is a bounded idempotency-key table. Eviction is FIFO over
// completed entries in completion order, so a misbehaving client cannot
// grow it without bound while in-flight requests are never dropped
// mid-execution. With a store, outcomes complete under durableMu right
// after their record is appended, so completion order is log order and a
// server recovered by replaying the log evicts exactly the keys the
// crashed one did.
type dedupTable struct {
	mu       sync.Mutex
	capLimit int
	entries  map[string]*dedupEntry
	order    []string // completed keys, oldest first
}

func newDedupTable(capLimit int) *dedupTable {
	return &dedupTable{capLimit: capLimit, entries: map[string]*dedupEntry{}}
}

// claim returns the entry for key. claimed is true when this caller owns
// execution and must settle the entry via complete or abandon; false means
// another request already executed (or is executing) the key — wait on
// entry.done and replay.
func (d *dedupTable) claim(key string) (entry *dedupEntry, claimed bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.entries[key]; ok {
		return e, false
	}
	e := &dedupEntry{done: make(chan struct{})}
	d.entries[key] = e
	d.evictLocked()
	return e, true
}

// complete publishes key's outcome and wakes replaying waiters. It settles
// the entry a live handler claimed, or installs a completed one when
// recovery replays the key. A key that already completed keeps its first
// outcome.
func (d *dedupTable) complete(key string, resp interface{}, errMsg string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[key]
	if ok && e.complete {
		return
	}
	if !ok {
		e = &dedupEntry{done: make(chan struct{})}
		d.entries[key] = e
	}
	e.resp, e.errMsg, e.complete = resp, errMsg, true
	close(e.done)
	d.order = append(d.order, key)
	d.evictLocked()
}

// abandon forgets a claimed key whose request was refused before it
// executed, so a retry executes instead of replaying the refusal. Waiters
// already parked on the entry still receive errMsg.
func (d *dedupTable) abandon(key string, e *dedupEntry, errMsg string) {
	d.mu.Lock()
	if d.entries[key] == e {
		delete(d.entries, key)
	}
	d.mu.Unlock()
	e.errMsg = errMsg
	close(e.done)
}

// evictLocked drops the oldest completed keys while the table is over
// capacity; when everything left is in flight it allows a temporary
// overshoot. Caller holds d.mu.
func (d *dedupTable) evictLocked() {
	for len(d.entries) > d.capLimit && len(d.order) > 0 {
		delete(d.entries, d.order[0])
		d.order = d.order[1:]
	}
}

// size reports the current number of remembered keys.
func (d *dedupTable) size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries)
}

// snapshot returns the completed entries in completion order. In-flight
// entries are skipped: their outcome record has not been appended yet, so
// a snapshot cut now correctly omits them and the record that follows
// re-creates them on replay.
func (d *dedupTable) snapshot() []DedupState {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]DedupState, 0, len(d.order))
	for _, key := range d.order {
		e := d.entries[key]
		ds := DedupState{Key: key, Err: e.errMsg}
		if rr, ok := e.resp.(*ReserveResponse); ok && len(rr.Slivers) > 0 {
			ds.Slivers = rr.Slivers
		}
		out = append(out, ds)
	}
	return out
}

// --- Leases ---

// leaseKind distinguishes what expiry must undo.
type leaseKind int

const (
	// leaseReserve holds slivers placed by handleReserve for a remote
	// coordinator; expiry releases them locally.
	leaseReserve leaseKind = iota
	// leaseSlice holds a whole slice embedded by handleCreateSlice; expiry
	// deletes the slice and releases its remote slivers too.
	leaseSlice
)

// serverLease is one slice's hold on resources. A zero expiry means the
// slivers are held until explicit release and the reaper never touches
// them; a non-zero expiry makes the holding a lease. holder records which
// coordinator reserved the slivers (the credential subject), so
// ListHoldings can answer anti-entropy reads per coordinator.
type serverLease struct {
	slice   string
	kind    leaseKind
	holder  string
	expiry  time.Time
	slivers []planetlab.Sliver // leaseReserve only
}

func (l *serverLease) leased() bool { return !l.expiry.IsZero() }

// leaseTable indexes active holdings by slice name. It tracks *all* reserve
// holdings — leased or not — so Release can free exactly the slivers this
// server still holds: once the reaper (or a racing duplicate) has freed a
// sliver, a later Release for it is a no-op instead of a second node-load
// decrement that would leak capacity held by other slices.
type leaseTable struct {
	mu         sync.Mutex
	leases     map[string]*serverLease
	lastLeased int
	// onChange, when set, observes the change in the number of *leased*
	// entries after every mutation. It is invoked under mu, so deltas are
	// ordered and sum to the live count however mutations interleave.
	onChange func(delta int)
}

func newLeaseTable() *leaseTable {
	return &leaseTable{leases: map[string]*serverLease{}}
}

// notifyLocked reports the leased-entry delta since the last mutation.
// Caller holds lt.mu.
func (lt *leaseTable) notifyLocked() {
	leased := 0
	for _, l := range lt.leases {
		if l.leased() {
			leased++
		}
	}
	delta := leased - lt.lastLeased
	lt.lastLeased = leased
	if lt.onChange != nil && delta != 0 {
		lt.onChange(delta)
	}
}

// add registers (or extends) a holding. A repeated add for the same slice
// merges slivers and keeps the later expiry, where a zero expiry acts as
// +infinity: merging an indefinite holding with a leased one leaves the
// whole holding indefinite rather than silently expiring it.
func (lt *leaseTable) add(slice string, kind leaseKind, holder string, slivers []planetlab.Sliver, expiry time.Time) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if l, ok := lt.leases[slice]; ok {
		l.slivers = append(l.slivers, slivers...)
		if l.expiry.IsZero() || expiry.IsZero() {
			l.expiry = time.Time{}
		} else if expiry.After(l.expiry) {
			l.expiry = expiry
		}
		// A merged holding keeps its original holder (slice names are
		// scoped per coordinator in practice).
	} else {
		lt.leases[slice] = &serverLease{slice: slice, kind: kind, holder: holder, expiry: expiry, slivers: slivers}
	}
	lt.notifyLocked()
}

// take removes and returns slice's holding (nil if there is none).
func (lt *leaseTable) take(slice string) *serverLease {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	l := lt.leases[slice]
	delete(lt.leases, slice)
	lt.notifyLocked()
	return l
}

// splitSlivers matches each requested sliver against at most one held
// sliver: taken are the matches, rest what stays held.
func splitSlivers(held, requested []planetlab.Sliver) (taken, rest []planetlab.Sliver) {
	rest = append([]planetlab.Sliver(nil), held...)
	for _, req := range requested {
		for i, sv := range rest {
			if sv.SiteID == req.SiteID && sv.NodeID == req.NodeID {
				rest = append(rest[:i], rest[i+1:]...)
				taken = append(taken, sv)
				break
			}
		}
	}
	return taken, rest
}

// held returns the requested slivers that slice's reserve holding still
// tracks — exactly what trim would remove, without removing it.
func (lt *leaseTable) held(slice string, requested []planetlab.Sliver) []planetlab.Sliver {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	l, ok := lt.leases[slice]
	if !ok || l.kind != leaseReserve {
		return nil
	}
	taken, _ := splitSlivers(l.slivers, requested)
	return taken
}

// trim removes the requested slivers from a reserve holding and returns the
// ones actually removed — the only slivers the caller may release. Requests
// for slivers no longer tracked (already reaped, already released, or never
// reserved here) return nothing. When no slivers remain the holding itself
// goes away.
func (lt *leaseTable) trim(slice string, requested []planetlab.Sliver) []planetlab.Sliver {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	l, ok := lt.leases[slice]
	if !ok || l.kind != leaseReserve {
		return nil
	}
	removed, rest := splitSlivers(l.slivers, requested)
	l.slivers = rest
	if len(l.slivers) == 0 {
		delete(lt.leases, slice)
	}
	lt.notifyLocked()
	return removed
}

// due returns copies of every leased holding whose expiry is at or before
// now, leaving them in place. Indefinite (zero-expiry) holdings are never
// due.
func (lt *leaseTable) due(now time.Time) []serverLease {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	var out []serverLease
	for _, l := range lt.leases {
		if l.leased() && !l.expiry.After(now) {
			out = append(out, *l)
		}
	}
	return out
}

// holdingsFor returns deep copies of the reserve holdings owned by holder,
// for the anti-entropy ListHoldings read.
func (lt *leaseTable) holdingsFor(holder string) []serverLease {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	var out []serverLease
	for _, l := range lt.leases {
		if l.kind != leaseReserve || l.holder != holder {
			continue
		}
		cp := *l
		cp.slivers = append([]planetlab.Sliver(nil), l.slivers...)
		out = append(out, cp)
	}
	return out
}

// snapshot returns deep copies of every holding (leased or not).
func (lt *leaseTable) snapshot() []serverLease {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	out := make([]serverLease, 0, len(lt.leases))
	for _, l := range lt.leases {
		cp := *l
		cp.slivers = append([]planetlab.Sliver(nil), l.slivers...)
		out = append(out, cp)
	}
	return out
}

// active reports the number of tracked holdings, leased or not.
func (lt *leaseTable) active() int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return len(lt.leases)
}
