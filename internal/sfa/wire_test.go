package sfa

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Envelope{ID: 42, Method: MethodPing, Params: marshal(map[string]int{"x": 1})}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != 42 || out.Method != MethodPing {
		t.Errorf("round trip lost fields: %+v", out)
	}
	if string(out.Params) != `{"x":1}` {
		t.Errorf("params = %s", out.Params)
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(id uint64, method string, errMsg string) bool {
		var buf bytes.Buffer
		in := &Envelope{ID: id, Method: method, Error: errMsg}
		if err := WriteFrame(&buf, in); err != nil {
			return false
		}
		out, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		return out.ID == id && out.Method == method && out.Error == errMsg
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReadFrameEOF(t *testing.T) {
	if _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream should yield io.EOF, got %v", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Envelope{ID: 1, Method: "m"}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Error("truncated frame must fail")
	}
}

func TestReadFrameOversized(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameSize+1)
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Error("oversized frame must be rejected before allocation")
	}
}

func TestReadFrameGarbage(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("not json")
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	buf.Write(hdr[:])
	buf.Write(payload)
	if _, err := ReadFrame(&buf); err == nil || !strings.Contains(err.Error(), "decode") {
		t.Errorf("garbage payload should be a decode error, got %v", err)
	}
}

func TestCredentialRoundTrip(t *testing.T) {
	secret := []byte("shared-federation-root")
	c := IssueCredential(secret, "alice", "PLE", time.Minute)
	if err := c.Verify(secret, time.Now()); err != nil {
		t.Errorf("fresh credential rejected: %v", err)
	}
}

func TestCredentialExpiry(t *testing.T) {
	secret := []byte("s")
	c := IssueCredential(secret, "bob", "PLC", time.Second)
	if err := c.Verify(secret, time.Now().Add(time.Hour)); err == nil {
		t.Error("expired credential must fail")
	}
}

func TestCredentialTamper(t *testing.T) {
	secret := []byte("s")
	c := IssueCredential(secret, "bob", "PLC", time.Minute)
	c.Subject = "mallory"
	if err := c.Verify(secret, time.Now()); err == nil {
		t.Error("tampered subject must fail")
	}
	c2 := IssueCredential(secret, "bob", "PLC", time.Minute)
	if err := c2.Verify([]byte("other"), time.Now()); err == nil {
		t.Error("wrong secret must fail")
	}
	c3 := IssueCredential(secret, "bob", "PLC", time.Minute)
	c3.Signature = "zz not hex"
	if err := c3.Verify(secret, time.Now()); err == nil {
		t.Error("malformed signature must fail")
	}
}

func BenchmarkFrameRoundTrip(b *testing.B) {
	cases := []struct {
		name string
		env  *Envelope
	}{
		{"ListResources", &Envelope{ID: 7, Method: MethodListResources, Params: marshal(ResourceList{
			Authority: "PLE",
			Sites: []SiteResource{
				{SiteID: "s1", Name: "Site 1", Nodes: 2, Capacity: 20, Free: 10},
				{SiteID: "s2", Name: "Site 2", Nodes: 4, Capacity: 40, Free: 40},
			},
		})}},
		{"ReserveRequest", &Envelope{ID: 8, Method: MethodReserve, Params: marshal(ReserveRequest{
			Credential: seedCredential, SliceName: "exp-1", Sites: 2, PerSite: 1,
			IdempotencyKey: "PLC/exp-1#3/reserve", TTLSeconds: 30,
		})}},
		{"ReserveResponse", &Envelope{ID: 8, Result: marshal(ReserveResponse{Slivers: seedSlivers})}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := WriteFrame(&buf, c.env); err != nil {
					b.Fatal(err)
				}
				if _, err := ReadFrame(&buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestReadFrameAllocatesAsBytesArrive announces a MaxFrameSize payload,
// sends 10 bytes and hangs up: the reader must not have allocated the
// announced size for bytes that never came.
func TestReadFrameAllocatesAsBytesArrive(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameSize)
	stream := append(hdr[:], make([]byte, 10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(bytes.NewReader(stream))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a truncated frame must fail")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("ReadFrame allocated %d bytes for a 10-byte partial payload", got)
	}
}

// TestReadFrameArbitraryBytes feeds random byte streams to ReadFrame: it
// must return an error or a message, never panic, and never allocate beyond
// the frame cap.
func TestReadFrameArbitraryBytes(t *testing.T) {
	f := func(raw []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("ReadFrame panicked on %x: %v", raw, r)
			}
		}()
		_, _ = ReadFrame(bytes.NewReader(raw))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestServerSurvivesGarbageConnection opens a raw TCP connection, writes
// junk, and verifies the server keeps serving other clients.
func TestServerSurvivesGarbageConnection(t *testing.T) {
	srv := startServer(t, buildAuthority(t, "PLC", 1, 1, 1))
	raw, err := netDial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x00}); err != nil {
		t.Fatal(err)
	}
	// A well-behaved client still works.
	c := dialServer(t, srv)
	if err := c.Call(MethodPing, nil, nil); err != nil {
		t.Errorf("ping after garbage peer: %v", err)
	}
}
