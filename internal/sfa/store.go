package sfa

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"fedshare/internal/planetlab"
)

// This file defines the durable-state surface of the SFA server: the
// Store interface the server appends mutation records to, the Record
// union those appends carry, and the State snapshot that recovery and
// snapshotting exchange. The server stays memory-only by default (nil
// Store); fedd wires in the WAL-backed DurableStore with -data-dir.

// Record ops. Every record describes one completed, externally visible
// mutation of durable state; replaying a log prefix in order reproduces
// the exact server state at that point.
const (
	// OpReserve: slivers placed (or a keyed failure cached) by
	// handleReserve. Carries the placement, lease expiry, and dedup key.
	OpReserve = "reserve"
	// OpRelease: slivers actually freed by handleRelease (post lease
	// trim), plus the dedup key.
	OpRelease = "release"
	// OpCreateSlice: a federated slice committed by handleCreateSlice —
	// spec, local slivers, remote slivers, optional whole-slice lease.
	OpCreateSlice = "create_slice"
	// OpDeleteSlice: a slice explicitly deleted.
	OpDeleteSlice = "delete_slice"
	// OpExpire: the reaper released one expired lease.
	OpExpire = "expire"
	// OpGen: an idempotency generation was drawn, so a recovered server
	// never reuses a generation that may have reached a peer.
	OpGen = "gen"
	// OpAmendRemote: the reconciler proved some of a slice's peer-held
	// slivers were lost (the peer restarted without them); Remote is the
	// slice's corrected peer-sliver set.
	OpAmendRemote = "amend_remote"
)

// Record is one durable mutation. Fields are a union over the ops above;
// unused fields stay zero and are omitted from the encoding.
type Record struct {
	Op      string          `json:"op"`
	Slice   string          `json:"slice,omitempty"`
	Key     string          `json:"key,omitempty"`
	Holder  string          `json:"holder,omitempty"` // reserving coordinator (OpReserve)
	Err     string          `json:"err,omitempty"`
	Kind    int             `json:"kind,omitempty"`   // leaseKind for OpExpire
	Expiry  int64           `json:"expiry,omitempty"` // UnixNano; 0 = no lease
	Gen     uint64          `json:"gen,omitempty"`
	Spec    *SliceSpecState `json:"spec,omitempty"`
	Slivers []SliverRecord  `json:"slivers,omitempty"` // local slivers
	Remote  []SliverRecord  `json:"remote,omitempty"`  // peer-held slivers
}

// Store persists the server's durable mutations. Implementations must be
// safe for concurrent use; the server additionally serializes Append
// calls against state mutations so the log is a true linearization.
type Store interface {
	// Append durably logs one mutation record before the server
	// acknowledges the mutation to its client.
	Append(Record) error
	// MaybeSnapshot cuts a snapshot (and rotates the log) if one is due.
	// The server calls it at the end of each durable region — after the
	// append AND after the region's side effects (dedup completion) are
	// visible — never from inside Append, where a keyed request's own
	// outcome would not yet be capturable.
	MaybeSnapshot() error
	// SetSnapshotSource registers the callback that captures the server's
	// full durable state, letting the store cut snapshots at durable-region
	// boundaries.
	SetSnapshotSource(func() State)
	// Close releases the store. The server does not call Close; the
	// process owner does, after Server.Close.
	Close() error
}

// SliceSpecState mirrors planetlab.SliceSpec for the durable encoding.
type SliceSpecState struct {
	Name           string `json:"name"`
	Owner          string `json:"owner,omitempty"`
	MinSites       int    `json:"min_sites,omitempty"`
	MaxSites       int    `json:"max_sites,omitempty"`
	SliversPerSite int    `json:"per,omitempty"`
}

func specState(s planetlab.SliceSpec) *SliceSpecState {
	return &SliceSpecState{Name: s.Name, Owner: s.Owner, MinSites: s.MinSites,
		MaxSites: s.MaxSites, SliversPerSite: s.SliversPerSite}
}

func (s *SliceSpecState) spec() planetlab.SliceSpec {
	return planetlab.SliceSpec{Name: s.Name, Owner: s.Owner, MinSites: s.MinSites,
		MaxSites: s.MaxSites, SliversPerSite: s.SliversPerSite}
}

// SliceState is one embedded slice's durable record.
type SliceState struct {
	Spec   SliceSpecState `json:"spec"`
	Local  []SliverRecord `json:"local,omitempty"`
	Remote []SliverRecord `json:"remote,omitempty"`
}

// LeaseState is one holding in the lease table.
type LeaseState struct {
	Slice   string         `json:"slice"`
	Kind    int            `json:"kind"`
	Holder  string         `json:"holder,omitempty"`
	Expiry  int64          `json:"expiry,omitempty"` // UnixNano; 0 = indefinite
	Slivers []SliverRecord `json:"slivers,omitempty"`
}

// DedupState is one completed idempotency entry: the key and the outcome
// that retries must replay. Reserve outcomes are the placed slivers;
// release outcomes are empty; either may instead be a cached error.
type DedupState struct {
	Key     string         `json:"key"`
	Err     string         `json:"err,omitempty"`
	Slivers []SliverRecord `json:"slivers,omitempty"`
}

// State is the full durable state of a server, canonically ordered so two
// servers that executed the same mutations compare equal with
// reflect.DeepEqual. It is the snapshot format of the durable store and
// the witness the recovery-equivalence tests compare.
type State struct {
	// Seq is the idempotency-generation high-water mark.
	Seq uint64 `json:"seq"`
	// Slices, Leases sorted by slice name; Dedup in completion order,
	// oldest first, which is the table's eviction order.
	Slices   []SliceState   `json:"slices,omitempty"`
	Leases   []LeaseState   `json:"leases,omitempty"`
	Dedup    []DedupState   `json:"dedup,omitempty"`
	Usage    map[string]int `json:"usage,omitempty"`
	Embedded int            `json:"embedded,omitempty"`

	// tail holds the log records written after this snapshot, in log
	// order; Restore replays them through the server's apply. It is never
	// part of a snapshot.
	tail []Record
}

// canonicalize sorts the state's slices and leases into their documented
// order and normalizes empty collections to nil, so states built by replay,
// by live capture, or by a JSON round trip all compare equal with
// reflect.DeepEqual. Dedup keeps its order: with a store, outcomes complete
// in log order, and that order decides which keys the bounded table evicts.
func (st *State) canonicalize() {
	sort.Slice(st.Slices, func(i, j int) bool { return st.Slices[i].Spec.Name < st.Slices[j].Spec.Name })
	sort.Slice(st.Leases, func(i, j int) bool { return st.Leases[i].Slice < st.Leases[j].Slice })
	if len(st.Slices) == 0 {
		st.Slices = nil
	}
	if len(st.Leases) == 0 {
		st.Leases = nil
	}
	if len(st.Dedup) == 0 {
		st.Dedup = nil
	}
	if len(st.Usage) == 0 {
		st.Usage = nil
	}
}

// apply turns one mutation record into its state change, and is the only
// code that does. Live handlers, the reaper, nextGen and amendIntent decide
// what happens, build the record, append it, then apply it; Restore replays
// the log tail through it. The one live/replay difference is who charged
// the nodes a record's slivers occupy: live, placement did so before the
// record existed; in replay, Restore charges the recorded slivers first.
// An error means the record cannot follow the current state.
func (s *Server) apply(rec Record) error {
	if rec.Key != "" && !strings.HasPrefix(rec.Key, rec.Op+":") {
		// Keys are namespaced by method; a snapshot's dedup entries are
		// restored by that namespace.
		return fmt.Errorf("sfa: %s record carries key %q of another method", rec.Op, rec.Key)
	}
	switch rec.Op {
	case OpGen:
		// A live draw already advanced seq to Gen (see nextGen), so only
		// replay, which runs alone, ever stores here.
		if rec.Gen > s.seq.Load() {
			s.seq.Store(rec.Gen)
		}
	case OpReserve:
		if len(rec.Slivers) > 0 {
			s.leases.add(rec.Slice, leaseReserve, rec.Holder, toSlivers(rec.Slice, rec.Slivers), expiryTime(rec.Expiry))
		}
		if rec.Key != "" {
			var resp interface{}
			if rec.Err == "" {
				resp = &ReserveResponse{Slivers: rec.Slivers}
			}
			s.dedup.complete(rec.Key, resp, rec.Err)
		}
	case OpRelease:
		s.auth.ReleaseSlivers(s.leases.trim(rec.Slice, toSlivers(rec.Slice, rec.Slivers)))
		if rec.Key != "" {
			s.dedup.complete(rec.Key, &Empty{}, rec.Err)
		}
	case OpCreateSlice:
		if rec.Spec == nil {
			return fmt.Errorf("sfa: %s record for %q lacks a spec", rec.Op, rec.Slice)
		}
		name := rec.Spec.Name
		if err := s.auth.AdoptSlice(&planetlab.Slice{Spec: rec.Spec.spec(), Slivers: toSlivers(name, rec.Slivers)}); err != nil {
			return err
		}
		s.mu.Lock()
		if len(rec.Remote) > 0 {
			s.remoteRefs[name] = rec.Remote
		}
		s.embedded++
		s.usage[s.auth.Name] += len(rec.Slivers)
		for _, sv := range rec.Remote {
			s.usage[sv.Authority]++
		}
		s.mu.Unlock()
		if rec.Expiry != 0 {
			s.leases.add(name, leaseSlice, "", nil, expiryTime(rec.Expiry))
		}
	case OpDeleteSlice:
		s.dropSlice(rec.Slice)
	case OpAmendRemote:
		s.mu.Lock()
		if _, ok := s.remoteRefs[rec.Slice]; ok {
			if len(rec.Remote) == 0 {
				delete(s.remoteRefs, rec.Slice)
			} else {
				s.remoteRefs[rec.Slice] = rec.Remote
			}
		}
		s.mu.Unlock()
	case OpExpire:
		switch leaseKind(rec.Kind) {
		case leaseReserve:
			if l := s.leases.take(rec.Slice); l != nil {
				s.auth.ReleaseSlivers(l.slivers)
			}
		case leaseSlice:
			s.dropSlice(rec.Slice)
		default:
			return fmt.Errorf("sfa: expire record with unknown lease kind %d", rec.Kind)
		}
	default:
		return fmt.Errorf("sfa: unknown record op %q", rec.Op)
	}
	return nil
}

// dropSlice deletes a slice, its lease and its peer references. Slivers a
// reserve merged into the lease under the slice's name are freed with it,
// so node load never counts a sliver nothing tracks. Usage is cumulative
// and survives deletion.
func (s *Server) dropSlice(name string) {
	_ = s.auth.DeleteSlice(name) // callers decided the slice exists
	if l := s.leases.take(name); l != nil {
		s.auth.ReleaseSlivers(l.slivers)
	}
	s.mu.Lock()
	delete(s.remoteRefs, name)
	s.mu.Unlock()
}

// expiryTime converts a recorded UnixNano expiry; 0 means no lease.
func expiryTime(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// --- Conversions between wire records and substrate slivers ---

// toSlivers converts wire SliverRecords to substrate slivers of slice.
func toSlivers(slice string, recs []SliverRecord) []planetlab.Sliver {
	if len(recs) == 0 {
		return nil
	}
	out := make([]planetlab.Sliver, len(recs))
	for i, r := range recs {
		out[i] = planetlab.Sliver{SliceName: slice, SiteID: r.SiteID, NodeID: r.NodeID}
	}
	return out
}

// toRecords converts substrate slivers to wire records owned by authority.
func toRecords(authority string, svs []planetlab.Sliver) []SliverRecord {
	if len(svs) == 0 {
		return nil
	}
	out := make([]SliverRecord, len(svs))
	for i, sv := range svs {
		out[i] = SliverRecord{Authority: authority, SiteID: sv.SiteID, NodeID: sv.NodeID}
	}
	return out
}
