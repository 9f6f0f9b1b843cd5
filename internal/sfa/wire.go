// Package sfa implements a small Slice-based Federation Architecture
// substrate (Sec. 3.2.2 mentions SFA as PlanetLab's federation plane):
// regional authorities run registry servers that exchange credentials and
// resource records over TCP, peer with each other, embed slices across the
// federation, and expose the policy-computed value shares.
//
// The wire format is deliberately simple and fully self-contained:
// length-prefixed JSON frames carrying request/response envelopes.
package sfa

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
)

// MaxFrameSize bounds a single message to keep a misbehaving peer from
// forcing unbounded allocations.
const MaxFrameSize = 4 << 20

// Envelope is one framed message: a request (Method set) or a response
// (Error or Result set), matched by ID.
type Envelope struct {
	ID     uint64          `json:"id"`
	Method string          `json:"method,omitempty"`
	Params json.RawMessage `json:"params,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
	// Code classifies machine-actionable errors. The only defined value is
	// CodeOverloaded, which marks the error as retriable without counting
	// against the peer's health (the server answered; it just shed load).
	Code string `json:"code,omitempty"`
}

// CodeOverloaded is the Envelope.Code of a response shed by the server's
// admission gate: the request was NOT executed and may be retried safely.
const CodeOverloaded = "overloaded"

// WriteFrame writes one length-prefixed JSON frame. The bytes are exactly
// the 4-byte big-endian length followed by json.Marshal(env): raw Params and
// Result are compacted, HTML-escaped and validated as json.Marshal does.
func WriteFrame(w io.Writer, env *Envelope) error {
	return writeFrame(w, env, false)
}

// writeFrame builds the header and envelope in one pooled buffer and hands
// it to w in a single Write. marshaled promises that env's raw Params and
// Result came straight from json.Marshal (compact, escaped, valid), so they
// are copied verbatim instead of being scanned again.
func writeFrame(w io.Writer, env *Envelope, marshaled bool) error {
	bp := framePool.Get().(*[]byte)
	defer releaseFrame(bp)
	buf, err := appendEnvelope(append((*bp)[:0], 0, 0, 0, 0), env, marshaled)
	*bp = buf
	if err != nil {
		return fmt.Errorf("sfa: encode: %w", err)
	}
	n := len(buf) - 4
	if n > MaxFrameSize {
		return fmt.Errorf("sfa: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(buf, uint32(n))
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("sfa: write frame: %w", err)
	}
	return nil
}

// framePool recycles encode buffers; buffers grown past maxPooledFrame are
// dropped so one large frame does not pin its memory.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

const maxPooledFrame = 64 << 10

func releaseFrame(bp *[]byte) {
	if cap(*bp) <= maxPooledFrame {
		framePool.Put(bp)
	}
}

// ReadFrame reads one length-prefixed JSON frame. The result is always what
// json.Unmarshal makes of the payload: frames in the canonical shape that
// WriteFrame emits are parsed directly, anything else goes through
// json.Unmarshal itself.
func ReadFrame(r io.Reader) (*Envelope, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err // preserve io.EOF for clean shutdown detection
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return nil, fmt.Errorf("sfa: incoming frame of %d bytes exceeds limit", n)
	}
	payload, err := readPayload(r, int(n))
	if err != nil {
		return nil, fmt.Errorf("sfa: read payload: %w", err)
	}
	env := new(Envelope)
	if decodeCanonical(payload, env) {
		return env, nil
	}
	*env = Envelope{}
	if err := json.Unmarshal(payload, env); err != nil {
		return nil, fmt.Errorf("sfa: decode: %w", err)
	}
	return env, nil
}

// eagerPayload is the largest payload read into a buffer of its announced
// size up front. Larger payloads grow their buffer as bytes arrive, so a
// header alone cannot make the reader allocate MaxFrameSize.
const eagerPayload = 64 << 10

// readPayload reads exactly n bytes. Like io.ReadFull it returns io.EOF
// only when no byte arrived and io.ErrUnexpectedEOF on a short read.
func readPayload(r io.Reader, n int) ([]byte, error) {
	if n <= eagerPayload {
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	buf := make([]byte, 0, eagerPayload)
	for len(buf) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(2*cap(buf), n))
			copy(grown, buf)
			buf = grown
		}
		m, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err == io.EOF && len(buf) > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// --- Envelope codec ---

// appendEnvelope appends json.Marshal(env) to dst without reflection.
func appendEnvelope(dst []byte, env *Envelope, marshaled bool) ([]byte, error) {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, env.ID, 10)
	if env.Method != "" {
		dst = appendString(append(dst, `,"method":`...), env.Method)
	}
	var err error
	if len(env.Params) != 0 {
		if dst, err = appendRaw(append(dst, `,"params":`...), env.Params, marshaled); err != nil {
			return dst, err
		}
	}
	if len(env.Result) != 0 {
		if dst, err = appendRaw(append(dst, `,"result":`...), env.Result, marshaled); err != nil {
			return dst, err
		}
	}
	if env.Error != "" {
		dst = appendString(append(dst, `,"error":`...), env.Error)
	}
	if env.Code != "" {
		dst = appendString(append(dst, `,"code":`...), env.Code)
	}
	return append(dst, '}'), nil
}

// appendString appends s as json.Marshal encodes it. Printable ASCII that
// needs no escape is copied directly; anything else is left to
// encoding/json so escaping rules stay exactly its own.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) || s[i] == '<' || s[i] == '>' || s[i] == '&' {
			b, _ := json.Marshal(s) // a string always encodes
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// plainByte reports whether c stands for itself inside a JSON string, in
// both directions: printable ASCII other than the quote and backslash.
func plainByte(c byte) bool {
	return c >= 0x20 && c < 0x80 && c != '"' && c != '\\'
}

// appendRaw appends a raw JSON value as json.Marshal does: compacted,
// HTML-escaped, and rejected when invalid. A value known to be json.Marshal
// output already is all three and is copied as is.
func appendRaw(dst, raw []byte, marshaled bool) ([]byte, error) {
	if marshaled {
		return append(dst, raw...), nil
	}
	var compacted bytes.Buffer
	if err := json.Compact(&compacted, raw); err != nil {
		return dst, err
	}
	out := bytes.NewBuffer(dst)
	json.HTMLEscape(out, compacted.Bytes())
	return out.Bytes(), nil
}

// envelopeFields are the keys after "id" in the order WriteFrame emits them.
var envelopeFields = [...]string{"method", "params", "result", "error", "code"}

// decodeCanonical parses the canonical envelope WriteFrame emits:
// {"id":<uint>} with optional "method", "params", "result", "error" and
// "code" in that order, no whitespace, strings of plain ASCII, raw values
// that are valid JSON and not null. It fills env and reports true only when
// the payload has that shape, in which case env equals what json.Unmarshal
// produces; on false the caller falls back to json.Unmarshal.
func decodeCanonical(p []byte, env *Envelope) bool {
	const head = `{"id":`
	if !bytes.HasPrefix(p, []byte(head)) {
		return false
	}
	i := len(head)
	id, i, ok := parseUint(p, i)
	if !ok {
		return false
	}
	env.ID = id
	next := 0 // index into envelopeFields of the first key still allowed
	for {
		if i >= len(p) {
			return false
		}
		if p[i] == '}' {
			return i+1 == len(p)
		}
		if p[i] != ',' {
			return false
		}
		key, j, ok := parsePlainString(p, i+1)
		if !ok || j >= len(p) || p[j] != ':' {
			return false
		}
		f := next
		for f < len(envelopeFields) && envelopeFields[f] != string(key) {
			f++
		}
		if f == len(envelopeFields) {
			return false
		}
		next = f + 1
		i = j + 1
		switch name := envelopeFields[f]; name {
		case "params", "result":
			end := skipValue(p, i)
			if end <= i || p[i] == 'n' || !json.Valid(p[i:end]) {
				return false
			}
			raw := json.RawMessage(p[i:end:end])
			if name == "params" {
				env.Params = raw
			} else {
				env.Result = raw
			}
			i = end
		default:
			s, end, ok := parsePlainString(p, i)
			if !ok {
				return false
			}
			switch name {
			case "method":
				env.Method = methodName(s)
			case "error":
				env.Error = string(s)
			case "code":
				env.Code = string(s)
			}
			i = end
		}
	}
}

// parseUint parses a JSON number made only of digits, without a leading
// zero, that fits a uint64. It returns the value and the index after it.
func parseUint(p []byte, i int) (uint64, int, bool) {
	start := i
	var v uint64
	for ; i < len(p) && p[i] >= '0' && p[i] <= '9'; i++ {
		d := uint64(p[i] - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, 0, false
		}
		v = v*10 + d
	}
	if i == start || (p[start] == '0' && i > start+1) {
		return 0, 0, false
	}
	return v, i, true
}

// parsePlainString parses a quoted string at p[i] made only of plain bytes
// and returns its contents and the index after the closing quote.
func parsePlainString(p []byte, i int) ([]byte, int, bool) {
	if i >= len(p) || p[i] != '"' {
		return nil, 0, false
	}
	start := i + 1
	for i = start; i < len(p) && p[i] != '"'; i++ {
		if !plainByte(p[i]) {
			return nil, 0, false
		}
	}
	if i >= len(p) {
		return nil, 0, false
	}
	return p[start:i], i + 1, true
}

// skipValue returns the index just past the JSON value starting at p[i],
// assuming it is well formed; the caller validates the span. A scalar ends
// at the first delimiter or whitespace, a container at its closing bracket.
func skipValue(p []byte, i int) int {
	depth := 0
	for ; i < len(p); i++ {
		switch p[i] {
		case '"':
			for {
				k := bytes.IndexByte(p[i+1:], '"')
				if k < 0 {
					return len(p)
				}
				i += 1 + k
				// The quote closes the string unless an odd run of
				// backslashes escapes it.
				n := 0
				for p[i-1-n] == '\\' {
					n++
				}
				if n%2 == 0 {
					break
				}
			}
			if depth == 0 {
				return i + 1
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return i
			}
			if depth--; depth == 0 {
				return i + 1
			}
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return i
			}
		}
	}
	return len(p)
}

// knownMethods lets the decoder reuse the method name constants instead of
// copying the name out of every request frame.
var knownMethods = [...]string{
	MethodPing, MethodGetRecord, MethodListResources, MethodPeer,
	MethodCreateSlice, MethodDeleteSlice, MethodReserve, MethodRelease,
	MethodGetShares, MethodGetUsage, MethodListHoldings,
}

func methodName(b []byte) string {
	for _, m := range knownMethods {
		if m == string(b) {
			return m
		}
	}
	return string(b)
}

// marshal encodes params/results, panicking only on programmer error
// (unencodable types).
func marshal(v interface{}) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("sfa: marshal: %v", err))
	}
	return b
}

// --- Method names ---

// Protocol methods.
const (
	MethodPing          = "sfa.Ping"
	MethodGetRecord     = "sfa.GetRecord"
	MethodListResources = "sfa.ListResources"
	MethodPeer          = "sfa.Peer"
	MethodCreateSlice   = "sfa.CreateSlice"
	MethodDeleteSlice   = "sfa.DeleteSlice"
	MethodReserve       = "sfa.Reserve"
	MethodRelease       = "sfa.Release"
	MethodGetShares     = "sfa.GetShares"
	MethodGetUsage      = "sfa.GetUsage"
	MethodListHoldings  = "sfa.ListHoldings"
)

// --- Message payloads ---

// AuthorityRecord describes an authority in the registry.
type AuthorityRecord struct {
	Name  string `json:"name"`
	Addr  string `json:"addr"`
	Sites int    `json:"sites"`
}

// SiteResource is one advertised site.
type SiteResource struct {
	SiteID   string `json:"site_id"`
	Name     string `json:"name"`
	Nodes    int    `json:"nodes"`
	Capacity int    `json:"capacity"` // total sliver slots
	Free     int    `json:"free"`     // currently unreserved slots
}

// ResourceList is the RSpec-like resource advertisement.
type ResourceList struct {
	Authority string         `json:"authority"`
	Sites     []SiteResource `json:"sites"`
}

// PeerRequest initiates (or refreshes) a peering between authorities: the
// caller introduces itself and presents a credential signed with the shared
// federation secret.
type PeerRequest struct {
	Record     AuthorityRecord `json:"record"`
	Credential Credential      `json:"credential"`
}

// PeerResponse returns the callee's record.
type PeerResponse struct {
	Record AuthorityRecord `json:"record"`
}

// SliceRequest asks for a federated slice.
type SliceRequest struct {
	Credential     Credential `json:"credential"`
	Name           string     `json:"name"`
	Owner          string     `json:"owner"`
	MinSites       int        `json:"min_sites"`
	MaxSites       int        `json:"max_sites"`
	SliversPerSite int        `json:"slivers_per_site"`
	// TTLSeconds leases the slice for the experiment's holding time: once
	// it elapses the embedding server deletes the slice and releases its
	// local and remote slivers. Zero means no lease.
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
}

// SliverRecord is one placed sliver.
type SliverRecord struct {
	Authority string `json:"authority"`
	SiteID    string `json:"site_id"`
	NodeID    string `json:"node_id"`
}

// SliceResponse reports a deployed slice.
type SliceResponse struct {
	Name    string         `json:"name"`
	Slivers []SliverRecord `json:"slivers"`
	Sites   int            `json:"sites"`
}

// ReserveRequest asks a peer to place slivers locally on behalf of a
// federated slice.
type ReserveRequest struct {
	Credential Credential `json:"credential"`
	SliceName  string     `json:"slice_name"`
	Sites      int        `json:"sites"` // how many distinct sites
	PerSite    int        `json:"per"`   // slivers per site
	// IdempotencyKey makes retries safe: the server remembers the response
	// to each key in a bounded table and replays it instead of reserving
	// again. Empty disables dedup (legacy behavior).
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// TTLSeconds turns the reservation into a lease: the server's reaper
	// releases the slivers once the TTL elapses without an explicit
	// Release. It models the finite holding time t of the paper's demand
	// classes. Zero means no lease (held until released).
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
}

// ReserveResponse returns the placed slivers.
type ReserveResponse struct {
	Slivers []SliverRecord `json:"slivers"`
}

// ReleaseRequest frees previously reserved slivers.
type ReleaseRequest struct {
	Credential Credential     `json:"credential"`
	SliceName  string         `json:"slice_name"`
	Slivers    []SliverRecord `json:"slivers"`
	// IdempotencyKey makes retried releases safe: without it, a release
	// whose response was lost and which is then retried would decrement
	// node load twice and corrupt the accounting other slices rely on.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// SharesRequest asks the authority for the federation value shares it has
// computed from the advertised contributions and its demand profile.
type SharesRequest struct {
	Policy string `json:"policy"` // "shapley", "proportional", ...
}

// SharesResponse maps authority names to normalized shares. When peers are
// unreachable the coordinator degrades instead of erroring: Partial marks
// the response as computed over the live sub-federation only, and Down
// lists the excluded authorities. Both fields are omitted on the healthy
// path, so all-peers-live responses are byte-identical to earlier versions.
type SharesResponse struct {
	Policy     string             `json:"policy"`
	GrandValue float64            `json:"grand_value"`
	Shares     map[string]float64 `json:"shares"`
	Partial    bool               `json:"partial,omitempty"`
	Down       []string           `json:"down,omitempty"`
}

// UsageResponse reports the cumulative slivers each authority has served
// for slices embedded via this registry, plus the resulting measured
// (consumption-based) shares — the ρ̂ of eq. (7) computed from observed
// usage instead of a demand model.
type UsageResponse struct {
	Authority         string             `json:"authority"`
	CumulativeSlivers map[string]int     `json:"cumulative_slivers"`
	MeasuredShares    map[string]float64 `json:"measured_shares"`
	SlicesEmbedded    int                `json:"slices_embedded"`
}

// HoldingsRequest asks a peer which reserve holdings it currently tracks
// for a given coordinator — the anti-entropy read the reconciler diffs
// against its own intent after a partition heals. Holder defaults to the
// credential subject.
type HoldingsRequest struct {
	Credential Credential `json:"credential"`
	Holder     string     `json:"holder,omitempty"`
}

// Holding is one slice's live reserve holding at the answering authority.
type Holding struct {
	Slice   string         `json:"slice"`
	Expiry  int64          `json:"expiry,omitempty"` // UnixNano; 0 = held until released
	Slivers []SliverRecord `json:"slivers,omitempty"`
}

// HoldingsResponse lists the holder's holdings, sorted by slice name with
// slivers sorted by (site, node) so two identical states encode
// identically.
type HoldingsResponse struct {
	Authority string    `json:"authority"`
	Holdings  []Holding `json:"holdings,omitempty"`
}

// DeleteRequest removes a slice.
type DeleteRequest struct {
	Credential Credential `json:"credential"`
	Name       string     `json:"name"`
}

// Empty is a no-payload result.
type Empty struct{}
