package main

// Host-speed probes. The benchmark shares its host's cores with other
// tenants, and on such a host the same fixed computation runs up to 1.7×
// slower for tens of seconds at a time; no run is long enough to average
// that out. A run therefore times fixed work of the benchmark's own (never
// the program's code, so a change to the program cannot move it) while its
// load is paused, and scales its timing figures to the reference speed: a
// figure reads what it would on the reference host. Two probes cover the
// two kinds of work the figures time. A CPU kernel, probed between sweep
// experiments and closed-loop windows and before each sweep set-up, scales
// the throughput, latency and sweep set-up figures. A loopback probe,
// taken before each federation set-up, scales that set-up, which is
// socket creation and connection set-up more than computation; the CPU
// kernel left half its spread. The unscaled figures and the load's host
// slowdown are printed in the fingerprint line beside them.

import (
	"crypto/sha256"
	"io"
	"net"
	"sort"
	"strconv"
	"time"
)

// probeRef and loopbackRef are the CPU kernel's and the loopback probe's
// times on the reference host (2 vCPUs of an Intel Xeon, Go 1.24).
const (
	probeRef    = 5 * time.Millisecond
	loopbackRef = 1400 * time.Microsecond
)

// probeEvery is how often the sweep loop pauses between experiments to
// probe; the federation loop probes between its windows.
const probeEvery = 250 * time.Millisecond

// probeState is the kernel's working memory, allocated once so a probe
// never allocates and so never waits on the collector for the heap the
// measured program built.
var probeState struct {
	xs  []int
	m   map[int]int
	buf [4096]byte
	num []byte
}

func init() {
	probeState.xs = make([]int, 2048)
	probeState.m = make(map[int]int, 2048)
	probeState.num = make([]byte, 0, 32)
}

// probeSink keeps the kernel's result live.
var probeSink int

// probeHost runs the fixed kernel once — sorting, hashing, map updates and
// number formatting, the mix a Go service spends its time on — and returns
// its wall time.
func probeHost() time.Duration {
	st := &probeState
	t0 := time.Now()
	x := uint64(88172645463325252)
	acc := 0
	for round := 0; round < 24; round++ {
		for i := range st.xs {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			st.xs[i] = int(x % 100000)
		}
		sort.Ints(st.xs)
		for i, v := range st.xs[:1024] {
			st.m[v] += i
		}
		for i := range st.buf {
			st.buf[i] = byte(st.xs[i%len(st.xs)])
		}
		sum := sha256.Sum256(st.buf[:])
		acc += int(sum[0]) + len(st.m)
		for _, v := range st.xs[:256] {
			st.num = strconv.AppendInt(st.num[:0], int64(v), 10)
			acc += len(st.num)
		}
		clear(st.m)
	}
	probeSink = acc
	return time.Since(t0)
}

// probeLoopback opens ten loopback TCP connections in turn, makes a
// one-byte round trip on each and closes it, and returns the wall time.
func probeLoopback() (time.Duration, error) {
	t0 := time.Now()
	for k := 0; k < 10; k++ {
		if err := loopbackRoundTrip(); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// loopbackRoundTrip opens one loopback connection, makes a one-byte round
// trip on it and closes it; the accepting goroutine has ended on return.
func loopbackRoundTrip() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	done := make(chan struct{})
	defer func() {
		_ = ln.Close()
		<-done
	}()
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var b [1]byte
		if _, err := io.ReadFull(c, b[:]); err == nil {
			_, _ = c.Write(b[:])
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	defer c.Close()
	var b [1]byte
	if _, err := c.Write(b[:]); err != nil {
		return err
	}
	_, err = io.ReadFull(c, b[:])
	return err
}

// slowdown is how much slower than the reference host this one ran the
// probed work: the median probe time over its reference time ref.
func slowdown(probes []time.Duration, ref time.Duration) float64 {
	if len(probes) == 0 {
		return 1
	}
	xs := make([]float64, len(probes))
	for i, d := range probes {
		xs[i] = float64(d) / float64(ref)
	}
	return median(xs)
}
