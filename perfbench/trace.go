package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// interval is a closed-open time range in nanoseconds since a recorder's
// origin.
type interval struct{ start, end int64 }

// recorder keeps the spans of one traced run in memory: one span per
// call the benchmark makes into a layer's public functions, named after
// the layer and the operation ("ingest.fsync", "checkpoint.write").
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans map[string][]interval
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: map[string][]interval{}}
}

// now returns the current offset from the recorder's origin.
func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// add records one span.
func (r *recorder) add(name string, start, end int64) {
	r.mu.Lock()
	r.spans[name] = append(r.spans[name], interval{start, end})
	r.mu.Unlock()
}

// get returns a copy of the spans recorded under name.
func (r *recorder) get(name string) []interval {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]interval(nil), r.spans[name]...)
}

// union merges overlapping intervals into a sorted disjoint cover.
func union(ivs ...[]interval) []interval {
	var all []interval
	for _, iv := range ivs {
		all = append(all, iv...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start < all[j].start })
	var out []interval
	for _, iv := range all {
		if iv.end <= iv.start {
			continue
		}
		if n := len(out); n > 0 && iv.start <= out[n-1].end {
			if iv.end > out[n-1].end {
				out[n-1].end = iv.end
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// covered returns the total length of the union of ivs.
func covered(ivs ...[]interval) time.Duration {
	var sum int64
	for _, iv := range union(ivs...) {
		sum += iv.end - iv.start
	}
	return time.Duration(sum)
}

// selfTime is the part of parent's cover that none of the children
// cover: a layer's span time minus the time its callees account for.
func selfTime(parent []interval, children ...[]interval) time.Duration {
	p := union(parent)
	c := union(children...)
	var overlap int64
	j := 0
	for _, a := range p {
		for j < len(c) && c[j].end <= a.start {
			j++
		}
		for k := j; k < len(c) && c[k].start < a.end; k++ {
			lo, hi := max(a.start, c[k].start), min(a.end, c[k].end)
			overlap += hi - lo
		}
	}
	return covered(p) - time.Duration(overlap)
}

// unaccounted is the share of whole that the parts do not explain;
// negative when the parts add up to more than the whole.
func unaccounted(whole float64, parts ...float64) float64 {
	if whole == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range parts {
		sum += p
	}
	return (whole - sum) / whole
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs, or
// 0 for no samples. xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(rank, 0), len(xs)-1)]
}

// median is percentile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.5)
}

// durationsUS converts durations to microseconds.
func durationsUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}
