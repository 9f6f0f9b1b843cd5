package sfa

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// This file implements anti-entropy reconciliation: when a peer partitions
// away, the coordinator queues the operations it could not deliver; when a
// probe reaches the peer again, a reconciler (1) replays the backlog under
// the operations' original idempotency keys, (2) diffs the peer's live
// holdings against the coordinator's intent (remoteRefs) — retiring
// orphaned slivers at the peer and dropping intent the peer lost — and
// (3) verifies holdings == intent before the peer is readmitted to share
// computation. Idempotency keys (PR 5) make replays exactly-once; the
// durable OpGen high-water mark (PR 8) guarantees retire keys drawn after
// a coordinator restart never collide with keys already seen by the peer.

// pendingOp is one undelivered operation queued for replay. The credential
// is re-issued at replay time (the original would have expired); the
// original idempotency key is preserved so a request that DID reach the
// peer before the partition replays its cached outcome instead of
// re-executing.
type pendingOp struct {
	method  string // MethodReserve or MethodRelease
	slice   string
	key     string
	reserve *ReserveRequest
	release *ReleaseRequest
}

// reconciler holds the per-peer backlog of undelivered operations.
type reconciler struct {
	mu      sync.Mutex
	backlog map[string][]pendingOp
}

func newReconciler() *reconciler {
	return &reconciler{backlog: map[string][]pendingOp{}}
}

func (r *reconciler) enqueue(peer string, op pendingOp) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.backlog[peer] = append(r.backlog[peer], op)
	return len(r.backlog[peer])
}

// take removes and returns the peer's entire backlog in FIFO order.
func (r *reconciler) take(peer string) []pendingOp {
	r.mu.Lock()
	defer r.mu.Unlock()
	ops := r.backlog[peer]
	delete(r.backlog, peer)
	return ops
}

// requeueFront puts unreplayed operations back at the head of the backlog,
// ahead of anything enqueued while the reconciler was running.
func (r *reconciler) requeueFront(peer string, ops []pendingOp) {
	if len(ops) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.backlog[peer] = append(append([]pendingOp(nil), ops...), r.backlog[peer]...)
}

func (r *reconciler) depth(peer string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.backlog[peer])
}

// sliverKey identifies a sliver for intent/holdings comparison.
func sliverKey(slice string, sv SliverRecord) string {
	return slice + "\x00" + sv.SiteID + "\x00" + sv.NodeID
}

// remoteIntent returns the coordinator's intended holdings at peer:
// slice -> slivers, extracted from remoteRefs.
func (s *Server) remoteIntent(peer string) map[string][]SliverRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string][]SliverRecord{}
	for slice, svs := range s.remoteRefs {
		for _, sv := range svs {
			if sv.Authority == peer {
				out[slice] = append(out[slice], sv)
			}
		}
	}
	return out
}

// amendIntent drops lost slivers (held in intent but no longer at the
// peer) from remoteRefs, durably recording the corrected per-slice sets.
func (s *Server) amendIntent(peer string, lost map[string][]SliverRecord) {
	dropped := 0
	s.storeLock()
	s.mu.Lock()
	var records []Record
	for slice, svs := range lost {
		gone := map[string]bool{}
		for _, sv := range svs {
			gone[sliverKey(slice, sv)] = true
			dropped++
		}
		var keep []SliverRecord
		for _, sv := range s.remoteRefs[slice] {
			if !gone[sliverKey(slice, sv)] {
				keep = append(keep, sv)
			}
		}
		records = append(records, Record{Op: OpAmendRemote, Slice: slice, Remote: keep})
	}
	s.mu.Unlock()
	sort.Slice(records, func(i, j int) bool { return records[i].Slice < records[j].Slice })
	for _, rec := range records {
		if err := s.storeAppend(rec); err != nil {
			s.log.Errorf("sfa[%s]: wal append (amend %s): %v", s.auth.Name, rec.Slice, err)
		}
		_ = s.apply(rec)
	}
	s.storeUnlock()
	s.metrics.reconcileDropped.Add(int64(dropped))
	s.log.Infof("sfa[%s]: reconcile with %s: dropped %d lost slivers from intent", s.auth.Name, peer, dropped)
}

// reconcilePeer runs one reconciliation attempt against a peer in the
// recovering state, then readmits (converged) or demotes (failed) it. It
// runs inline on the reaper goroutine, which Close stops before peer
// clients are torn down.
func (s *Server) reconcilePeer(name string, ph *peerHandle) {
	if s.runReconcile(name, ph) {
		s.metrics.reconcileRuns.With("converged").Inc()
		s.health.readmit(name)
		s.log.Infof("sfa[%s]: peer %s reconciled and readmitted", s.auth.Name, name)
	} else {
		s.metrics.reconcileRuns.With("failed").Inc()
		s.health.demote(name)
		s.log.Infof("sfa[%s]: reconcile with %s failed; peer stays down", s.auth.Name, name)
	}
	s.setBacklogGauge(name)
}

// reconcileMaxRounds bounds the drain loop: operations enqueued while a
// round was replaying get their own round, but a peer that keeps accruing
// backlog faster than it drains fails the attempt instead of looping.
const reconcileMaxRounds = 8

// runReconcile performs the three reconciliation phases; true means the
// peer's state provably equals coordinator intent and its backlog is
// empty.
func (s *Server) runReconcile(name string, ph *peerHandle) bool {
	cred := IssueCredential(s.secret, s.auth.Name, s.auth.Name, time.Minute)

	// Phase 1: replay the undelivered backlog in order, under original
	// idempotency keys — delivered-but-unacknowledged operations replay
	// their cached outcome, truly lost ones execute now.
	for round := 0; ; round++ {
		ops := s.recon.take(name)
		s.setBacklogGauge(name)
		if len(ops) == 0 {
			break
		}
		if round >= reconcileMaxRounds {
			s.recon.requeueFront(name, ops)
			s.setBacklogGauge(name)
			return false
		}
		for i, op := range ops {
			if err := s.replayOp(ph, cred, op); err != nil {
				s.recon.requeueFront(name, ops[i:])
				s.setBacklogGauge(name)
				s.log.Errorf("sfa[%s]: reconcile replay %s to %s: %v", s.auth.Name, op.method, name, err)
				return false
			}
			s.metrics.reconcileReplays.Inc()
		}
	}

	// Phase 2: anti-entropy. Diff the peer's live holdings for this
	// coordinator against intent: retire orphans (held but not intended —
	// e.g. a replayed reserve whose CreateSlice aborted or whose slice was
	// deleted during the partition), and drop lost intent (intended but
	// not held — the peer restarted without its state).
	held, err := s.fetchHoldings(ph, cred)
	if err != nil {
		s.log.Errorf("sfa[%s]: reconcile holdings at %s: %v", s.auth.Name, name, err)
		return false
	}
	intent := s.remoteIntent(name)
	orphans, lost := diffHoldings(held, intent)
	for _, slice := range sortedKeys(orphans) {
		svs := orphans[slice]
		gen := s.nextGen()
		if err := ph.client.Call(MethodRelease, ReleaseRequest{
			Credential: cred, SliceName: slice, Slivers: svs,
			// Fresh gen-keyed retire: the durable high-water mark
			// guarantees it cannot collide with any key the peer has seen.
			IdempotencyKey: fmt.Sprintf("%s/%s#%d@%s/retire", s.auth.Name, slice, gen, name),
		}, nil); err != nil {
			s.log.Errorf("sfa[%s]: reconcile retire %d slivers of %s at %s: %v",
				s.auth.Name, len(svs), slice, name, err)
			return false
		}
		s.metrics.reconcileRetired.Add(int64(len(svs)))
		s.log.Infof("sfa[%s]: reconcile with %s: retired %d orphaned slivers of %s",
			s.auth.Name, name, len(svs), slice)
	}
	if len(lost) > 0 {
		s.amendIntent(name, lost)
	}

	// Phase 3: verify convergence — the peer's holdings must now equal
	// intent exactly, and no backlog may have accrued meanwhile.
	held, err = s.fetchHoldings(ph, cred)
	if err != nil {
		return false
	}
	orphans, lost = diffHoldings(held, s.remoteIntent(name))
	if len(orphans) > 0 || len(lost) > 0 || s.recon.depth(name) > 0 {
		return false
	}
	return true
}

// replayOp re-sends one queued operation with a fresh credential. A remote
// error is a resolution (the operation executed and was rejected — e.g. a
// replayed reserve against a deleted slice's cached error); only transport
// failures abort the drain.
func (s *Server) replayOp(ph *peerHandle, cred Credential, op pendingOp) error {
	switch op.method {
	case MethodReserve:
		req := *op.reserve
		req.Credential = cred
		var rr ReserveResponse
		err := ph.client.Call(MethodReserve, req, &rr)
		if isTransportFailure(err) {
			return err
		}
		// Slivers placed by the replay that the committed slice does not
		// reference are orphans; phase 2 retires them.
		return nil
	case MethodRelease:
		req := *op.release
		req.Credential = cred
		if err := ph.client.Call(MethodRelease, req, nil); isTransportFailure(err) {
			return err
		}
		return nil
	}
	return fmt.Errorf("sfa: unknown pending op %q", op.method)
}

// fetchHoldings reads the peer's live holdings for this coordinator as a
// slice -> slivers map.
func (s *Server) fetchHoldings(ph *peerHandle, cred Credential) (map[string][]SliverRecord, error) {
	var hr HoldingsResponse
	if err := ph.client.Call(MethodListHoldings, HoldingsRequest{Credential: cred, Holder: s.auth.Name}, &hr); err != nil {
		return nil, err
	}
	out := map[string][]SliverRecord{}
	for _, h := range hr.Holdings {
		out[h.Slice] = append(out[h.Slice], h.Slivers...)
	}
	return out, nil
}

// diffHoldings splits the symmetric difference between what a peer holds
// and what the coordinator intends: orphans are held-but-not-intended,
// lost is intended-but-not-held.
func diffHoldings(held, intent map[string][]SliverRecord) (orphans, lost map[string][]SliverRecord) {
	orphans = map[string][]SliverRecord{}
	lost = map[string][]SliverRecord{}
	intentSet := map[string]bool{}
	for slice, svs := range intent {
		for _, sv := range svs {
			intentSet[sliverKey(slice, sv)] = true
		}
	}
	heldSet := map[string]bool{}
	for slice, svs := range held {
		for _, sv := range svs {
			heldSet[sliverKey(slice, sv)] = true
			if !intentSet[sliverKey(slice, sv)] {
				orphans[slice] = append(orphans[slice], sv)
			}
		}
	}
	for slice, svs := range intent {
		for _, sv := range svs {
			if !heldSet[sliverKey(slice, sv)] {
				lost[slice] = append(lost[slice], sv)
			}
		}
	}
	return orphans, lost
}

func sortedKeys(m map[string][]SliverRecord) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (s *Server) setBacklogGauge(peer string) {
	s.metrics.reconcileBacklog.With(peer).Set(float64(s.recon.depth(peer)))
}
