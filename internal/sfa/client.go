package sfa

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"fedshare/internal/stats"
)

// Client is a synchronous SFA protocol client. It is safe for concurrent
// use; calls are serialized over the single connection.
//
// The client is resilient by default: any transport error (dial, write,
// read, deadline, protocol violation) marks the connection broken so the
// next attempt redials a fresh one instead of reading a stale partial
// frame, failed calls are retried with exponential backoff and
// deterministic jitter up to a per-call budget, and a circuit breaker
// fails fast once a peer has proven dead. Server-reported failures
// (*RemoteError) are returned immediately: the transport worked, so
// retrying would re-execute the request.
type Client struct {
	cfg     ClientConfig
	metrics *clientMetrics

	mu      sync.Mutex
	conn    net.Conn
	r       *bufio.Reader
	w       *bufio.Writer
	nextID  uint64
	rng     *stats.Rand
	breaker breaker
	stats   ClientStats
}

// ClientStats counts a client's fault-handling activity (also exported as
// obs counters, which aggregate over all clients sharing a registry).
type ClientStats struct {
	Dials   int64 // successful connections, including the first
	Redials int64 // successful connections after the first
	Retries int64 // attempts beyond the first, across all calls
	Shed    int64 // responses shed by a server admission gate (CodeOverloaded)
}

// NewClient builds a client from cfg without connecting; the first call
// dials lazily. Zero-valued config fields take defaults (see ClientConfig).
func NewClient(cfg ClientConfig) *Client {
	cfg = cfg.withDefaults()
	c := &Client{
		cfg:     cfg,
		metrics: newClientMetrics(cfg.Registry),
		rng:     stats.NewRand(cfg.Seed),
		breaker: breaker{threshold: cfg.BreakerThreshold, cooldown: cfg.BreakerCooldown},
	}
	c.metrics.breakerState.With(cfg.Addr).Set(float64(breakerClosed))
	return c
}

// Dial connects to an SFA registry eagerly, returning any dial error
// immediately. timeout bounds both the dial and each call round-trip.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	c := NewClient(ClientConfig{Addr: addr, DialTimeout: timeout, CallTimeout: timeout})
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ensureConn(); err != nil {
		return nil, err
	}
	return c, nil
}

// Stats returns a snapshot of the client's fault-handling counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// BreakerState reports the circuit breaker's current state ("closed",
// "half-open", "open") for health surfacing.
func (c *Client) BreakerState() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.breaker.state.String()
}

// ensureConn dials a fresh connection if none is live. Caller holds c.mu.
func (c *Client) ensureConn() error {
	if c.conn != nil {
		return nil
	}
	conn, err := c.cfg.DialFunc(c.cfg.Addr, c.cfg.DialTimeout)
	if err != nil {
		return fmt.Errorf("sfa: dial %s: %w", c.cfg.Addr, err)
	}
	c.conn = conn
	c.r = bufio.NewReader(conn)
	c.w = bufio.NewWriter(conn)
	c.stats.Dials++
	if c.stats.Dials > 1 {
		c.stats.Redials++
		c.metrics.redials.Inc()
	}
	return nil
}

// breakConn discards the connection after a transport error so no later
// call can read a stale partial frame from it. Caller holds c.mu.
func (c *Client) breakConn() {
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
		c.r = nil
		c.w = nil
	}
}

// Call sends one request and decodes the response into result (which may be
// nil to discard). Server-side failures come back as *RemoteError without
// retry; transport failures are retried per the client's retry budget and
// surface the last error once the budget is exhausted.
//
// The mutex serializes only the wire round-trips: backoff sleeps happen
// with the lock released, so one call's backoff never blocks concurrent
// callers (or Close) for the duration of its retry schedule. The breaker is
// consulted before each backoff, so a call against an open breaker fails
// fast instead of sleeping first.
func (c *Client) Call(method string, params, result interface{}) error {
	var lastErr error
	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		c.mu.Lock()
		if !c.breaker.allow(c.cfg.Now()) {
			c.mu.Unlock()
			return circuitOpenError(c.cfg.Addr, lastErr)
		}
		c.setBreakerGauge()
		if attempt > 1 {
			c.stats.Retries++
			c.metrics.retries.Inc()
			delay := backoffDelay(c.cfg.RetryBase, c.cfg.RetryMax, attempt-1, c.rng)
			c.mu.Unlock()
			c.cfg.Sleep(delay)
			c.mu.Lock()
		}
		err := c.callOnce(method, params, result)
		if err == nil {
			c.breaker.success()
			c.setBreakerGauge()
			c.mu.Unlock()
			return nil
		}
		var remote *RemoteError
		if errors.As(err, &remote) {
			// The peer answered: the transport is healthy, so the breaker
			// never counts a remote error. An overload shed is the one
			// remote error guaranteed unexecuted — retry it with backoff;
			// everything else was executed and is returned immediately.
			c.breaker.success()
			c.setBreakerGauge()
			if remote.Code == CodeOverloaded {
				c.stats.Shed++
				c.metrics.shed.Inc()
				lastErr = err
				c.mu.Unlock()
				continue
			}
			c.mu.Unlock()
			return err
		}
		lastErr = err
		if c.breaker.failure(c.cfg.Now()) {
			c.metrics.breakerOpens.Inc()
		}
		c.setBreakerGauge()
		c.mu.Unlock()
	}
	return lastErr
}

func (c *Client) setBreakerGauge() {
	c.metrics.breakerState.With(c.cfg.Addr).Set(float64(c.breaker.state))
}

// callOnce performs one request/response round-trip. Any transport failure
// breaks the connection before returning. Caller holds c.mu.
func (c *Client) callOnce(method string, params, result interface{}) error {
	if err := c.ensureConn(); err != nil {
		return err
	}
	c.nextID++
	req := &Envelope{ID: c.nextID, Method: method}
	if params != nil {
		req.Params = marshal(params)
	}
	deadline := time.Now().Add(c.cfg.CallTimeout)
	if err := c.conn.SetDeadline(deadline); err != nil {
		c.breakConn()
		return fmt.Errorf("sfa: set deadline: %w", err)
	}
	if err := writeFrame(c.w, req, true); err != nil {
		c.breakConn()
		return err
	}
	if err := c.w.Flush(); err != nil {
		c.breakConn()
		return fmt.Errorf("sfa: flush: %w", err)
	}
	resp, err := ReadFrame(c.r)
	if err != nil {
		c.breakConn()
		return fmt.Errorf("sfa: read response: %w", err)
	}
	if resp.ID != req.ID {
		// A stale or corrupt frame: the stream is out of sync, so the
		// connection is unusable.
		c.breakConn()
		return fmt.Errorf("sfa: response id %d for request %d", resp.ID, req.ID)
	}
	if resp.Error != "" {
		return &RemoteError{Method: method, Msg: resp.Error, Code: resp.Code}
	}
	if result != nil {
		if err := json.Unmarshal(resp.Result, result); err != nil {
			// The frame was well-formed but the payload does not match:
			// the stream itself is still in sync, yet the response is
			// unusable and a retry would re-execute — treat as fatal.
			c.breakConn()
			return fmt.Errorf("sfa: decode result: %w", err)
		}
	}
	return nil
}

// Close tears down the connection. The client stays usable: a later Call
// redials.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	c.r = nil
	c.w = nil
	return err
}
