package sfa

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"fedshare/internal/obs"
	"fedshare/internal/wal"
)

// DurableOptions configures the WAL-backed store. Zero fields take
// defaults, so DurableOptions{Dir: d} is a working configuration.
type DurableOptions struct {
	// Dir is the data directory (required).
	Dir string
	// Fsync selects the WAL durability discipline (default
	// wal.FsyncInterval: process crashes lose nothing, power loss loses
	// at most FsyncInterval of acknowledged work).
	Fsync wal.FsyncPolicy
	// FsyncInterval paces background fsyncs (default 100ms).
	FsyncInterval time.Duration
	// SnapshotEvery cuts a snapshot and rotates the log after this many
	// appends (default 4096; negative disables automatic snapshots).
	SnapshotEvery int
	// Registry receives the WAL instrumentation (default obs.Default).
	Registry *obs.Registry
	// Logf receives recovery and maintenance diagnostics (optional).
	Logf func(string, ...interface{})
}

func (o DurableOptions) withDefaults() DurableOptions {
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 4096
	}
	if o.Registry == nil {
		o.Registry = obs.Default
	}
	return o
}

// DurableStore persists server mutations in a write-ahead log and cuts
// periodic state snapshots so recovery replays a bounded suffix. It
// implements Store.
type DurableStore struct {
	log   *wal.Log
	every int
	logf  func(string, ...interface{})

	mu     sync.Mutex
	since  int // appends since the last snapshot
	source func() State
}

// OpenDurableStore opens (or creates) the store in opts.Dir and reads back
// the durable server state: the newest valid snapshot plus the log records
// written after it, tolerating a torn tail. The returned State is what the
// server must Restore before Start, which replays those records; it is nil
// only for a fresh directory.
func OpenDurableStore(opts DurableOptions) (*DurableStore, *State, error) {
	opts = opts.withDefaults()
	l, rec, err := wal.Open(wal.Options{
		Dir:      opts.Dir,
		Policy:   opts.Fsync,
		Interval: opts.FsyncInterval,
		Registry: opts.Registry,
		Logf:     opts.Logf,
	})
	if err != nil {
		return nil, nil, err
	}
	st := &State{}
	if rec.Snapshot != nil {
		if err := json.Unmarshal(rec.Snapshot, st); err != nil {
			_ = l.Close()
			return nil, nil, fmt.Errorf("sfa: decode snapshot at seq %d: %w", rec.SnapshotSeq, err)
		}
	}
	for _, r := range rec.Records {
		var mrec Record
		if err := json.Unmarshal(r.Data, &mrec); err != nil {
			_ = l.Close()
			return nil, nil, fmt.Errorf("sfa: decode wal record %d: %w", r.Seq, err)
		}
		st.tail = append(st.tail, mrec)
	}
	d := &DurableStore{log: l, every: opts.SnapshotEvery, logf: opts.Logf}
	if d.logf == nil {
		d.logf = func(string, ...interface{}) {}
	}
	if rec.Snapshot == nil && len(rec.Records) == 0 {
		return d, nil, nil
	}
	return d, st, nil
}

// Append durably logs one mutation record. Snapshot pacing is only
// counted here; the cut itself happens in MaybeSnapshot, which the server
// calls once the whole durable region (including dedup completion) is
// capturable.
func (d *DurableStore) Append(rec Record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("sfa: encode wal record: %w", err)
	}
	if _, err := d.log.Append(b); err != nil {
		return err
	}
	d.mu.Lock()
	d.since++
	d.mu.Unlock()
	return nil
}

// MaybeSnapshot cuts a snapshot and rotates the log when SnapshotEvery
// appends have accumulated. A failed snapshot does not lose data — the
// log keeps growing until the next successful cut.
func (d *DurableStore) MaybeSnapshot() error {
	d.mu.Lock()
	due := d.every > 0 && d.since >= d.every && d.source != nil
	if due {
		d.since = 0
	}
	source := d.source
	d.mu.Unlock()
	if !due {
		return nil
	}
	if err := d.snapshot(source); err != nil {
		d.logf("sfa: periodic snapshot failed (log keeps growing): %v", err)
		return err
	}
	return nil
}

// SetSnapshotSource registers the state-capture callback. The server
// calls this once at construction.
func (d *DurableStore) SetSnapshotSource(fn func() State) {
	d.mu.Lock()
	d.source = fn
	d.mu.Unlock()
}

// Snapshot forces a snapshot + rotation now (also done automatically
// every SnapshotEvery appends and at Close).
func (d *DurableStore) Snapshot() error {
	d.mu.Lock()
	source := d.source
	d.since = 0
	d.mu.Unlock()
	if source == nil {
		return fmt.Errorf("sfa: no snapshot source registered")
	}
	return d.snapshot(source)
}

func (d *DurableStore) snapshot(source func() State) error {
	st := source()
	b, err := json.Marshal(&st)
	if err != nil {
		return fmt.Errorf("sfa: encode snapshot: %w", err)
	}
	return d.log.Snapshot(b)
}

// Close cuts a final snapshot when possible (making the next recovery a
// pure snapshot load) and closes the log.
func (d *DurableStore) Close() error {
	d.mu.Lock()
	source := d.source
	d.mu.Unlock()
	if source != nil {
		if err := d.snapshot(source); err != nil {
			d.logf("sfa: final snapshot failed: %v", err)
		}
	}
	return d.log.Close()
}
