package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"fedshare/internal/scenario"
)

// fedStreamBytes encodes the first n operations of every client stream.
func fedStreamBytes(t *testing.T, mixed bool, seed int64, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for c := 0; c < fedClients; c++ {
		s := newFedStream(mixed, seed, c)
		for i := 0; i < n; i++ {
			b, err := json.Marshal(s.next())
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(b)
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes()
}

// genBytes returns the first inputs a workload's generator produces.
func genBytes(t *testing.T, workload string, seed int64) []byte {
	t.Helper()
	switch workload {
	case wlFedDurable, wlFedMixed:
		return fedStreamBytes(t, workload == wlFedMixed, seed, 500)
	}
	docs, err := genSweepSpecs(workload, seed, 12)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Join(docs, []byte("\n"))
}

func TestGeneratorsAreSeeded(t *testing.T) {
	for _, wl := range workloads {
		a, b := genBytes(t, wl, 7), genBytes(t, wl, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave different inputs on two calls", wl)
		}
		if c := genBytes(t, wl, 8); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", wl)
		}
	}
}

func TestGeneratedSpecsAreValid(t *testing.T) {
	for _, wl := range []string{wlSweepLarge, wlSweepShapes} {
		docs, err := genSweepSpecs(wl, 3, 2*sweepCycle(wl))
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range docs {
			s, err := scenario.ParseSpec(d)
			if err != nil {
				t.Fatalf("%s spec %d: %v", wl, i, err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("%s spec %d: %v", wl, i, err)
			}
		}
	}
}

func TestFedStreamMix(t *testing.T) {
	s := newFedStream(true, 1, 0)
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		op := s.next()
		counts[op.Kind]++
		if op.Kind == opSlice && op.MinSites <= federationShape[0].Sites {
			t.Fatalf("slice %s needs only %d sites: PLC alone suffices", op.Name, op.MinSites)
		}
	}
	for kind, want := range map[string]float64{opReserve: 0.60, opShares: 0.125, opList: 0.125, opSlice: 0.15} {
		if got := float64(counts[kind]) / n; got < want-0.02 || got > want+0.02 {
			t.Errorf("%s: share %.3f, want about %.3f", kind, got, want)
		}
	}
}
