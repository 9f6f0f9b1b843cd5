package sfa

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"
)

// seedCredential is a fixed credential so seed frames are deterministic.
var seedCredential = Credential{Subject: "PLC", Authority: "PLC", Expires: 1700000000,
	Signature: "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08"}

var seedSlivers = []SliverRecord{
	{Authority: "PLE", SiteID: "PLE-s1", NodeID: "PLE-s1-n0"},
	{Authority: "PLE", SiteID: "PLE-s2", NodeID: "PLE-s2-n1"},
}

// seedEnvelopes returns one request and one response envelope per protocol
// method, carrying the payload types the server and client exchange, plus
// an error and an overload response.
func seedEnvelopes() []*Envelope {
	type call struct {
		method         string
		params, result interface{}
	}
	calls := []call{
		{MethodPing, nil, Empty{}},
		{MethodGetRecord, nil, AuthorityRecord{Name: "PLE", Addr: "127.0.0.1:7602", Sites: 16}},
		{MethodListResources, nil, ResourceList{Authority: "PLE", Sites: []SiteResource{
			{SiteID: "PLE-s1", Name: "Site 1", Nodes: 2, Capacity: 20, Free: 10}}}},
		{MethodPeer, PeerRequest{Record: AuthorityRecord{Name: "PLC", Addr: "127.0.0.1:7601", Sites: 4},
			Credential: seedCredential}, PeerResponse{Record: AuthorityRecord{Name: "PLE", Sites: 16}}},
		{MethodCreateSlice, SliceRequest{Credential: seedCredential, Name: "exp-1", Owner: "alice",
			MinSites: 6, MaxSites: 8, SliversPerSite: 1, TTLSeconds: 30},
			SliceResponse{Name: "exp-1", Slivers: seedSlivers, Sites: 2}},
		{MethodDeleteSlice, DeleteRequest{Credential: seedCredential, Name: "exp-1"}, Empty{}},
		{MethodReserve, ReserveRequest{Credential: seedCredential, SliceName: "exp-1", Sites: 2, PerSite: 1,
			IdempotencyKey: "PLC/exp-1#3/reserve", TTLSeconds: 30}, ReserveResponse{Slivers: seedSlivers}},
		{MethodRelease, ReleaseRequest{Credential: seedCredential, SliceName: "exp-1", Slivers: seedSlivers,
			IdempotencyKey: "PLC/exp-1#3/release"}, Empty{}},
		{MethodGetShares, SharesRequest{Policy: "shapley"}, SharesResponse{Policy: "shapley",
			GrandValue: 1300, Shares: map[string]float64{"PLC": 0.25, "PLE": 0.75}, Partial: true, Down: []string{"PLJ"}}},
		{MethodGetUsage, nil, UsageResponse{Authority: "PLC", CumulativeSlivers: map[string]int{"PLE": 3},
			MeasuredShares: map[string]float64{"PLE": 1}, SlicesEmbedded: 1}},
		{MethodListHoldings, HoldingsRequest{Credential: seedCredential, Holder: "PLC"},
			HoldingsResponse{Authority: "PLE", Holdings: []Holding{{Slice: "exp-1", Expiry: 1700000030000000000, Slivers: seedSlivers}}}},
	}
	var envs []*Envelope
	for i, c := range calls {
		req := &Envelope{ID: uint64(2*i + 1), Method: c.method}
		if c.params != nil {
			req.Params = marshal(c.params)
		}
		envs = append(envs, req, &Envelope{ID: req.ID, Result: marshal(c.result)})
	}
	return append(envs,
		&Envelope{ID: 99, Error: `reserve "exp-1": need 6 sites, have 4 <PLC>`},
		&Envelope{ID: 100, Error: "server overloaded: in-flight admission bound reached", Code: CodeOverloaded},
	)
}

// frameBytes returns the frame a faithful codec writes for env: the header
// plus json.Marshal(env).
func frameBytes(env *Envelope) ([]byte, error) {
	payload, err := json.Marshal(env)
	if err != nil {
		return nil, err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	return append(hdr[:], payload...), nil
}

// sameEnvelope compares every field, including nil versus empty raw values.
func sameEnvelope(a, b *Envelope) bool {
	sameRaw := func(x, y json.RawMessage) bool { return bytes.Equal(x, y) && (x == nil) == (y == nil) }
	return a.ID == b.ID && a.Method == b.Method && a.Error == b.Error && a.Code == b.Code &&
		sameRaw(a.Params, b.Params) && sameRaw(a.Result, b.Result)
}

// FuzzReadFrame checks ReadFrame against json.Unmarshal on arbitrary
// payloads: it accepts exactly what json.Unmarshal accepts, decodes every
// field identically, and what it decodes re-encodes and reads back equal.
func FuzzReadFrame(f *testing.F) {
	for _, env := range seedEnvelopes() {
		payload, err := json.Marshal(env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte(`{"id":0,"params": 0}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > MaxFrameSize {
			return
		}
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
		got, gotErr := ReadFrame(bytes.NewReader(append(hdr[:], payload...)))
		var want Envelope
		wantErr := json.Unmarshal(payload, &want)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("ReadFrame err = %v, json.Unmarshal err = %v on %q", gotErr, wantErr, payload)
		}
		if gotErr != nil {
			return
		}
		if !sameEnvelope(got, &want) {
			t.Fatalf("ReadFrame = %+v, json.Unmarshal = %+v on %q", got, want, payload)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, got); err != nil {
			t.Fatalf("re-encode %+v: %v", got, err)
		}
		wantFrame, err := frameBytes(got)
		if err != nil || !bytes.Equal(buf.Bytes(), wantFrame) {
			t.Fatalf("re-encode = %q, want %q (%v)", buf.Bytes(), wantFrame, err)
		}
		back, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		// The re-encoded raw values are json.Marshal's compact form.
		canon := *got
		for _, raw := range []*json.RawMessage{&canon.Params, &canon.Result} {
			if len(*raw) != 0 {
				*raw, _ = json.Marshal(*raw)
			}
		}
		if !sameEnvelope(back, &canon) {
			t.Fatalf("read back %+v, want %+v", back, canon)
		}
	})
}

// FuzzWriteFrame checks WriteFrame against header + json.Marshal(env): the
// same bytes, or an error exactly when json.Marshal errors. Raw values that
// are json.Marshal output also take the verbatim path the client and server
// use, which must produce the same bytes.
func FuzzWriteFrame(f *testing.F) {
	for _, env := range seedEnvelopes() {
		raw := env.Params
		if raw == nil {
			raw = env.Result
		}
		f.Add(env.ID, env.Method, env.Error, []byte(raw))
	}
	f.Add(uint64(0), "", "", []byte(" 0"))
	f.Add(uint64(1), "<a&b>", "line sep \u2028 para sep \u2029", []byte("{\"s\":\"<&>\u2028\"}"))
	f.Add(uint64(2), "bad\xffutf8", "tab\tnew\nquote\"back\\", []byte("\"\xff\xfe\""))
	f.Add(uint64(3), MethodReserve, "", []byte(" {\n\t\"a\" : [1, 2] }\r\n"))
	f.Add(uint64(4), MethodReserve, "", []byte(`{"a":`))
	f.Add(uint64(5), MethodPing, "", []byte("null"))
	f.Fuzz(func(t *testing.T, id uint64, method, errMsg string, raw []byte) {
		if len(raw)+len(method)+len(errMsg) > MaxFrameSize/16 {
			return // stay clear of the frame limit even after escaping
		}
		env := &Envelope{ID: id, Method: method, Params: raw, Error: errMsg}
		if id%2 == 1 {
			env.Result = raw // a malformed frame, but it must encode faithfully
		}
		check := func(env *Envelope, marshaled bool) {
			var buf bytes.Buffer
			gotErr := writeFrame(&buf, env, marshaled)
			want, wantErr := frameBytes(env)
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("writeFrame(marshaled=%v) err = %v, json.Marshal err = %v for %+v", marshaled, gotErr, wantErr, env)
			}
			if gotErr == nil && !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("writeFrame(marshaled=%v) = %q, want %q", marshaled, buf.Bytes(), want)
			}
		}
		check(env, false)
		if len(raw) == 0 {
			return
		}
		canon, err := json.Marshal(json.RawMessage(raw))
		if err != nil {
			return
		}
		env.Params = canon
		if env.Result != nil {
			env.Result = canon
		}
		check(env, true)
	})
}
