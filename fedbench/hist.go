package main

import (
	"math"
	"time"
)

// Latency histograms with fixed memory, so the benchmark's own
// bookkeeping does not grow with the number of calls it times and shift
// the heap figures of the process it measures.

const (
	// histGrowth is the ratio between neighbouring bucket bounds: a
	// quantile read from the histogram is within 2% of the exact one.
	histGrowth = 1.02
	// histBuckets covers 1µs to about 10s.
	histBuckets = 815
)

var logGrowth = math.Log(histGrowth)

// latHist counts durations in log-spaced buckets; bucket i holds
// [histGrowth^i, histGrowth^(i+1)) microseconds.
type latHist struct {
	counts [histBuckets]uint32
	n      int64
}

func (h *latHist) add(d time.Duration) {
	us := float64(d) / float64(time.Microsecond)
	i := 0
	if us > 1 {
		i = min(int(math.Log(us)/logGrowth), histBuckets-1)
	}
	h.counts[i]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in milliseconds, interpolating by rank
// inside the bucket that holds it (0 for an empty histogram).
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	seen := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= target {
			lo := math.Pow(histGrowth, float64(i))
			if i == 0 {
				lo = 0
			}
			hi := math.Pow(histGrowth, float64(i+1))
			frac := (target - seen) / float64(c)
			return (lo + (hi-lo)*frac) / 1000
		}
		seen += float64(c)
	}
	return math.Pow(histGrowth, histBuckets) / 1000
}
