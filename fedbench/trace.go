package main

// Outside-in instrumentation for traced runs: a counting and timing
// net.Conn for every benchmark and coordinator→peer connection (installed
// through sfa.ClientConfig.DialFunc), a timing sfa.Store decorator
// (installed through sfa.WithStore), and Go runtime counters. Nothing here
// changes the program under test; untraced runs install none of it.

import (
	"encoding/binary"
	"encoding/json"
	"net"
	"runtime/metrics"
	"sync"
	"time"

	"fedshare/internal/sfa"
)

// maxCapturedFrames bounds the frames a traced run keeps for the codec
// timing pass.
const maxCapturedFrames = 4096

// call is one request/response round trip seen on a traced connection.
type call struct {
	method string
	rtt    time.Duration
}

// connTracer owns every traced connection of one federation.
type connTracer struct {
	mu     sync.Mutex
	conns  []*tracedConn
	frames [][]byte // complete frames, header included
}

// dialer returns a DialFunc that traces the connections it opens; peer
// marks coordinator→peer connections.
func (t *connTracer) dialer(peer bool) func(addr string, timeout time.Duration) (net.Conn, error) {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		tc := &tracedConn{Conn: c, tr: t, peer: peer}
		t.mu.Lock()
		t.conns = append(t.conns, tc)
		t.mu.Unlock()
		return tc, nil
	}
}

// capture keeps a copy of a complete frame while the sample has room.
func (t *connTracer) capture(frame []byte) {
	t.mu.Lock()
	if len(t.frames) < maxCapturedFrames {
		t.frames = append(t.frames, append([]byte(nil), frame...))
	}
	t.mu.Unlock()
}

// captured returns the frames kept so far.
func (t *connTracer) captured() [][]byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([][]byte(nil), t.frames...)
}

// snapshot returns the traced connections.
func (t *connTracer) snapshot() []*tracedConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*tracedConn(nil), t.conns...)
}

// reset clears what the connections recorded so far (set-up traffic).
func (t *connTracer) reset() {
	for _, c := range t.snapshot() {
		c.mu.Lock()
		c.calls, c.busy, c.bytesIn, c.bytesOut = nil, 0, 0, 0
		c.mu.Unlock()
	}
	t.mu.Lock()
	t.frames = nil
	t.mu.Unlock()
}

// tracedConn times calls on an sfa client connection. The client has at
// most one call outstanding per connection, so a request frame's first
// written byte opens a call and the matching response frame's last read
// byte closes it.
type tracedConn struct {
	net.Conn
	tr   *connTracer
	peer bool

	mu          sync.Mutex
	wr, rd      frameScanner
	outstanding bool
	callStart   time.Time
	method      string
	calls       []call
	busy        time.Duration
	bytesIn     int64
	bytesOut    int64
}

func (c *tracedConn) Write(p []byte) (int, error) {
	now := time.Now()
	c.mu.Lock()
	if !c.outstanding && len(p) > 0 && c.wr.atFrameStart() {
		c.outstanding, c.callStart, c.method = true, now, ""
	}
	for _, f := range c.wr.feed(p) {
		if c.method == "" {
			c.method = frameMethod(f)
		}
		c.tr.capture(f)
	}
	c.bytesOut += int64(len(p))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		now := time.Now()
		c.mu.Lock()
		c.bytesIn += int64(n)
		for _, f := range c.rd.feed(p[:n]) {
			c.tr.capture(f)
			if c.outstanding {
				rtt := now.Sub(c.callStart)
				c.calls = append(c.calls, call{method: c.method, rtt: rtt})
				c.busy += rtt
				c.outstanding = false
			}
		}
		c.mu.Unlock()
	}
	return n, err
}

// stats returns what the connection recorded.
func (c *tracedConn) stats() (calls []call, busy time.Duration, in, out int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]call(nil), c.calls...), c.busy, c.bytesIn, c.bytesOut
}

// frameScanner splits a byte stream into sfa wire frames: a 4-byte
// big-endian length, then that many payload bytes.
type frameScanner struct {
	buf  []byte
	need int // payload bytes still expected; 0 while reading a header
}

func (s *frameScanner) atFrameStart() bool { return len(s.buf) == 0 }

// feed consumes p and returns every frame it completes.
func (s *frameScanner) feed(p []byte) [][]byte {
	var done [][]byte
	for len(p) > 0 {
		if len(s.buf) < 4 {
			k := min(4-len(s.buf), len(p))
			s.buf, p = append(s.buf, p[:k]...), p[k:]
			if len(s.buf) == 4 {
				s.need = int(binary.BigEndian.Uint32(s.buf))
			}
		} else {
			k := min(s.need, len(p))
			s.buf, p, s.need = append(s.buf, p[:k]...), p[k:], s.need-k
		}
		if len(s.buf) >= 4 && s.need == 0 {
			done = append(done, s.buf)
			s.buf = nil
		}
	}
	return done
}

// frameMethod extracts a request frame's method name.
func frameMethod(frame []byte) string {
	var env struct {
		Method string `json:"method"`
	}
	if len(frame) < 4 || json.Unmarshal(frame[4:], &env) != nil {
		return ""
	}
	return env.Method
}

// tracedStore times a server's Store calls. Snapshot cuts are recognised
// by the snapshot source being invoked inside MaybeSnapshot.
type tracedStore struct {
	sfa.Store

	mu        sync.Mutex
	appends   []storeAppend
	snapshots []time.Duration
	cutting   bool
}

// storeAppend is one timed Append.
type storeAppend struct {
	op string
	d  time.Duration
}

func (s *tracedStore) Append(rec sfa.Record) error {
	t0 := time.Now()
	err := s.Store.Append(rec)
	d := time.Since(t0)
	s.mu.Lock()
	s.appends = append(s.appends, storeAppend{op: rec.Op, d: d})
	s.mu.Unlock()
	return err
}

func (s *tracedStore) SetSnapshotSource(fn func() sfa.State) {
	s.Store.SetSnapshotSource(func() sfa.State {
		s.mu.Lock()
		s.cutting = true
		s.mu.Unlock()
		return fn()
	})
}

func (s *tracedStore) MaybeSnapshot() error {
	t0 := time.Now()
	err := s.Store.MaybeSnapshot()
	d := time.Since(t0)
	s.mu.Lock()
	if s.cutting {
		s.snapshots = append(s.snapshots, d)
		s.cutting = false
	}
	s.mu.Unlock()
	return err
}

// reset clears what the store recorded so far (set-up traffic).
func (s *tracedStore) reset() {
	s.mu.Lock()
	s.appends, s.snapshots = nil, nil
	s.mu.Unlock()
}

// stats returns what the store recorded.
func (s *tracedStore) stats() ([]storeAppend, []time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]storeAppend(nil), s.appends...), append([]time.Duration(nil), s.snapshots...)
}

// runtimeSample is a reading of the Go runtime counters the per-layer
// metrics difference.
type runtimeSample struct {
	allocBytes, gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(m metrics.Sample) float64 {
		switch m.Value.Kind() {
		case metrics.KindUint64:
			return float64(m.Value.Uint64())
		case metrics.KindFloat64:
			return m.Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(s[0]), gcCPU: val(s[1]), totalCPU: val(s[2])}
}

// setRuntimeMetrics reports allocation per operation and the GC's share of
// CPU between two readings.
func setRuntimeMetrics(rep *report, before, after runtimeSample, ops float64) {
	if ops > 0 {
		rep.set("go.alloc_bytes_per_op", (after.allocBytes-before.allocBytes)/ops)
	}
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		rep.set("go.gc_cpu_fraction", (after.gcCPU-before.gcCPU)/cpu)
	}
}
