package main

import "math/bits"

// hist is a log-linear latency histogram: values below 256 are exact,
// larger ones fall into buckets whose width is at most 1/128 of their
// lower edge, so every quantile is within 0.8% of the exact sorted value.
// Recording is two shifts and an increment; a hist is owned by one
// goroutine and merged afterwards.
type hist struct {
	counts [histBuckets]uint64
	n, sum uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// Values below 2*histSub map to themselves; each later power of two
	// adds histSub buckets, up to shift 64-(histSubBits+1).
	histBuckets = 2*histSub + (64-histSubBits-1)*histSub
)

func histIndex(v uint64) int {
	if v < 2*histSub {
		return int(v)
	}
	shift := bits.Len64(v) - (histSubBits + 1)
	return 2*histSub + (shift-1)*histSub + int(v>>uint(shift)) - histSub
}

// histBucket returns the lower edge and width of bucket i; the exact
// buckets below 2*histSub have width 0.
func histBucket(i int) (lo, width float64) {
	if i < 2*histSub {
		return float64(i), 0
	}
	shift := (i-2*histSub)/histSub + 1
	m := uint64(i-2*histSub)%histSub + histSub
	return float64(m << uint(shift)), float64(uint64(1) << uint(shift))
}

func (h *hist) record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(uint64(v))]++
	h.n++
	h.sum += uint64(v)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// mean returns the exact mean of the recorded values (0 when empty).
func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// quantile returns the nearest-rank q-quantile (0 when empty). Within its
// bucket the value is placed by the rank's position among the bucket's
// samples, so a quantile moves with the data instead of in bucket steps
// that would read the same on every run.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		if cum+c >= rank {
			lo, width := histBucket(i)
			return lo + width*(float64(rank-cum)-0.5)/float64(c)
		}
		cum += c
	}
	lo, _ := histBucket(histBuckets - 1)
	return lo
}
