package main

// Output checks. Each returns an error describing the first violation; a
// violation counts as a failed operation and makes the run incorrect.

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"fedshare/internal/scenario"
	"fedshare/internal/sfa"
)

// sharesTolerance bounds how far a share vector may sum from 1.
const sharesTolerance = 1e-9

// checkSlice verifies a federated slice spans at least MinSites distinct
// sites.
func checkSlice(op fedOp, resp *sfa.SliceResponse) error {
	sites := map[string]bool{}
	for _, sv := range resp.Slivers {
		sites[sv.Authority+"/"+sv.SiteID] = true
	}
	if len(sites) < op.MinSites || resp.Sites < op.MinSites {
		return fmt.Errorf("slice %s spans %d distinct sites (reported %d), needs %d", op.Name, len(sites), resp.Sites, op.MinSites)
	}
	return nil
}

// sliceAuthorities returns the distinct authorities holding a slice's
// slivers, sorted.
func sliceAuthorities(resp *sfa.SliceResponse) []string {
	seen := map[string]bool{}
	var out []string
	for _, sv := range resp.Slivers {
		if !seen[sv.Authority] {
			seen[sv.Authority] = true
			out = append(out, sv.Authority)
		}
	}
	sort.Strings(out)
	return out
}

// checkRenew verifies an idempotent renew replayed the original placement.
func checkRenew(name string, first, renew *sfa.ReserveResponse) error {
	if len(first.Slivers) == 0 {
		return fmt.Errorf("reserve %s placed no slivers", name)
	}
	if len(first.Slivers) != len(renew.Slivers) {
		return fmt.Errorf("renew %s: %d slivers, original had %d", name, len(renew.Slivers), len(first.Slivers))
	}
	for i := range first.Slivers {
		if first.Slivers[i] != renew.Slivers[i] {
			return fmt.Errorf("renew %s placed %v, original %v", name, renew.Slivers[i], first.Slivers[i])
		}
	}
	return nil
}

// checkShares verifies a share vector is complete, non-negative and sums
// to 1.
func checkShares(resp *sfa.SharesResponse) error {
	if resp.Partial {
		return fmt.Errorf("shares computed over a partial federation (down: %v)", resp.Down)
	}
	if len(resp.Shares) != len(federationShape) {
		return fmt.Errorf("shares cover %d authorities, want %d", len(resp.Shares), len(federationShape))
	}
	sum := 0.0
	for name, v := range resp.Shares {
		if v < 0 || math.IsNaN(v) {
			return fmt.Errorf("share of %s is %v", name, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > sharesTolerance {
		return fmt.Errorf("shares sum to %.12f", sum)
	}
	return nil
}

// checkFullCapacity verifies an authority holds no slivers.
func checkFullCapacity(rl *sfa.ResourceList) error {
	held := 0
	for _, s := range rl.Sites {
		held += s.Capacity - s.Free
	}
	if held != 0 {
		return fmt.Errorf("%s still holds %d slivers after the run", rl.Authority, held)
	}
	return nil
}

// checkResult verifies every sweep point of a shares-kind result: for each
// policy, the shares are non-negative and sum to 1. Series hold the mean
// share of each facility entry's replicas, so entry i weighs counts[i].
func checkResult(res *scenario.Result, policies int, counts []int) error {
	if len(res.Series) != policies*len(counts) {
		return fmt.Errorf("%s: %d series, want %d", res.ID, len(res.Series), policies*len(counts))
	}
	points := len(res.Series[0].Points)
	for p := 0; p < policies; p++ {
		for k := 0; k < points; k++ {
			sum := 0.0
			for i, c := range counts {
				ser := res.Series[p*len(counts)+i]
				if len(ser.Points) != points {
					return fmt.Errorf("%s: series %s has %d points, want %d", res.ID, ser.Name, len(ser.Points), points)
				}
				v := ser.Points[k].Y
				if v < 0 || math.IsNaN(v) {
					return fmt.Errorf("%s: series %s at x=%g is %v", res.ID, ser.Name, ser.Points[k].X, v)
				}
				sum += v * float64(c)
			}
			if math.Abs(sum-1) > sharesTolerance {
				return fmt.Errorf("%s: policy %d at point %d sums to %.12f", res.ID, p, k, sum)
			}
		}
	}
	return nil
}

// checkSameJSON verifies the traced and untraced runs of one experiment
// produced byte-identical results.
func checkSameJSON(id string, untraced, traced []byte) error {
	if !bytes.Equal(untraced, traced) {
		return fmt.Errorf("%s: traced result differs from the untraced one", id)
	}
	return nil
}
