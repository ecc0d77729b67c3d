package main

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by the nearest-rank rule. xs must be
// sorted; an empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// dist is a sorted sample of one timing, in the unit it is reported in.
type dist []float64

// newDist converts durations to unit-sized floats and sorts them.
func newDist(ds []time.Duration, unit time.Duration) dist {
	out := make(dist, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	sort.Float64s(out)
	return out
}

func (d dist) p50() float64 { return quantile(d, 0.50) }
func (d dist) p99() float64 { return quantile(d, 0.99) }

// beyondP99 counts the samples above the p99 value: a p99 is reported as
// resolved only when at least ten samples lie beyond it.
func (d dist) beyondP99() int {
	p := d.p99()
	i := sort.Search(len(d), func(i int) bool { return d[i] > p })
	return len(d) - i
}

// hist is a latency histogram of fixed size with a relative resolution of
// 1/histSub: values below histSub ns are exact, larger ones fall into
// histSub buckets per power of two. The untraced run records every call in
// one per second of the window, so the driver's own memory does not grow
// with the call count.
type hist struct {
	counts []uint32
	n      int
	sum    time.Duration
}

const (
	histSub     = 1 << 7
	histMaxExp  = 42 // 2^42 ns is over an hour; longer values are clamped
	histBuckets = (histMaxExp - 6) * histSub
)

func newHist() *hist { return &hist{counts: make([]uint32, histBuckets)} }

func histIndex(d time.Duration) int {
	v := uint64(max(d, 0))
	if v < histSub {
		return int(v)
	}
	k := bits.Len64(v) - 1
	if k >= histMaxExp {
		return histBuckets - 1
	}
	return (k-6)*histSub + int(v>>(k-7)&(histSub-1))
}

// histValue is the midpoint of bucket i.
func histValue(i int) time.Duration {
	if i < histSub {
		return time.Duration(i)
	}
	k := i/histSub + 6
	width := uint64(1) << (k - 7)
	return time.Duration((histSub+uint64(i%histSub))*width + width/2)
}

func (h *hist) add(d time.Duration) {
	h.counts[histIndex(d)]++
	h.n++
	h.sum += d
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// mean returns the exact mean in the given unit; 0 when empty.
func (h *hist) mean(unit time.Duration) float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n) / float64(unit)
}

// bucketAt returns the bucket holding the q-quantile by the nearest-rank
// rule.
func (h *hist) bucketAt(q float64) int {
	rank := int(math.Ceil(q * float64(h.n)))
	seen := 0
	for i, c := range h.counts {
		seen += int(c)
		if seen >= max(rank, 1) {
			return i
		}
	}
	return len(h.counts) - 1
}

// quantile returns the q-quantile in the given unit; 0 when empty.
func (h *hist) quantile(q float64, unit time.Duration) float64 {
	if h.n == 0 {
		return 0
	}
	return float64(histValue(h.bucketAt(q))) / float64(unit)
}

// beyondP99 counts the samples above the p99 bucket.
func (h *hist) beyondP99() int {
	if h.n == 0 {
		return 0
	}
	beyond := 0
	for _, c := range h.counts[h.bucketAt(0.99)+1:] {
		beyond += int(c)
	}
	return beyond
}

// median of an unsorted slice (copied, not reordered).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// opKind tells reads from writes in recorded samples and trace records.
type opKind uint8

const (
	opRead opKind = iota + 1
	opWrite
	opSize
	opTruncate
	opSync
)

// recorder is one client's measurement state for one phase: the closed loop
// asks more() before each operation and reports each call it timed. A
// recorder runs either for a budget of operations (warm-up) or until a
// deadline (the timed window); only calls that end inside the window become
// samples, but every call counts as attempted and every failure as failed.
type recorder struct {
	start, deadline time.Time
	budget          int // > 0: warm-up, stop after this many calls
	bucket          time.Duration
	last            time.Time

	reads, writes   []*hist // per window bucket
	opens, sessions *hist
	perBucket       []int64
	attempted       int64
	failed          int64
	firstErr        error
	trace           *clientTrace // nil when the phase is untraced
}

func newWindowRecorder(start time.Time, window time.Duration, trace *clientTrace) *recorder {
	n := int(math.Round(window.Seconds()))
	if n < 1 {
		n = 1
	}
	r := &recorder{
		opens:     newHist(),
		sessions:  newHist(),
		start:     start,
		deadline:  start.Add(window),
		bucket:    window / time.Duration(n),
		perBucket: make([]int64, n),
		last:      start,
		trace:     trace,
	}
	for range n {
		r.reads = append(r.reads, newHist())
		r.writes = append(r.writes, newHist())
	}
	return r
}

func newBudgetRecorder(calls int, trace *clientTrace) *recorder {
	return &recorder{budget: calls, trace: trace}
}

// more reports whether the client should issue another operation.
func (r *recorder) more() bool {
	if r.budget > 0 {
		return r.attempted < int64(r.budget)
	}
	return r.last.Before(r.deadline)
}

func (r *recorder) inWindow(end time.Time) bool {
	return r.budget == 0 && !end.After(r.deadline)
}

// op records one application read or write call.
func (r *recorder) op(kind opKind, begin, end time.Time, off int64, n int, session uint64) {
	r.last = end
	r.attempted++
	if r.trace != nil {
		r.trace.add(kind, begin, end, off, n, session)
	}
	if !r.inWindow(end) {
		return
	}
	i := int(end.Sub(r.start) / r.bucket)
	if i >= len(r.perBucket) {
		return
	}
	if kind == opRead {
		r.reads[i].add(end.Sub(begin))
	} else {
		r.writes[i].add(end.Sub(begin))
	}
	r.perBucket[i]++
}

// fail counts one failed or content-mismatched call; the first cause is kept
// for the report.
func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// check compares what a read returned against the shadow copy, outside the
// timed interval, and records a mismatch as a failure.
func (r *recorder) check(got, want []byte, off int64) {
	if !bytes.Equal(got, want) {
		r.fail(fmt.Errorf("content mismatch at offset %d (%d bytes)", off, len(want)))
	}
}
