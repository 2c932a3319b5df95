package main

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"

	"smartflux"
)

// percentile returns the p-th percentile (0..100) of xs, interpolating
// linearly between closest ranks, and how many samples lie strictly beyond
// it. xs must not be empty; it is not modified.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	value = s[lo]
	if lo+1 < len(s) {
		value += (pos - float64(lo)) * (s[lo+1] - s[lo])
	}
	for _, x := range s {
		if x > value {
			beyond++
		}
	}
	return value, beyond
}

// median is the 50th percentile.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

// digest fingerprints what the triggering policy decided and what the
// synchronous reference labelled: the live execution matrix and RefLabels of
// both phases. Equal digests mean two runs made identical decisions.
func digest(res *smartflux.PipelineResult) string {
	h := sha256.New()
	for _, r := range []*smartflux.Result{res.Train, res.Apply} {
		if r == nil {
			h.Write([]byte{'-'})
			continue
		}
		for _, row := range r.LiveExecuted {
			for _, ex := range row {
				b := byte('0')
				if ex {
					b = '1'
				}
				h.Write([]byte{b})
			}
			h.Write([]byte{'\n'})
		}
		for _, row := range r.RefLabels {
			for _, l := range row {
				h.Write([]byte{byte('1' + l)}) // labels are -1, 0 or 1
			}
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
