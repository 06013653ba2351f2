package main

import (
	"math"
	"sort"
	"time"
)

// latencies collects per-operation wall times.
type latencies []time.Duration

// sample is one operation's latency and when, measured from the start of
// its window, it completed.
type sample struct {
	at, lat time.Duration
}

type series []sample

func (s series) lats() latencies {
	out := make(latencies, len(s))
	for i, x := range s {
		out[i] = x.lat
	}
	return out
}

// subWindows is how many equal slices a window is cut into for the
// latency metrics: each slice gets its own quantile and the run reports
// their median, so a burst of interference from outside the benchmark
// that spoils one or two slices does not move the result.
const subWindows = 10

// sliceRates returns the operations completed per second in each of the
// window's slices. An operation counts toward each slice in proportion to
// the part of its run that fell inside it, so a slice's rate does not jump
// by a whole long operation that happened to end just inside or outside it.
func sliceRates(s series, window time.Duration) []float64 {
	width := float64(window) / subWindows
	done := make([]float64, subWindows)
	for _, x := range s {
		end := float64(x.at)
		begin := end - float64(x.lat)
		if x.lat <= 0 {
			begin = end - 1
		}
		for i := max(0, int(begin/width)); i < subWindows && float64(i)*width < end; i++ {
			lo, hi := max(begin, float64(i)*width), min(end, float64(i+1)*width)
			if hi > lo {
				done[i] += (hi - lo) / (end - begin)
			}
		}
	}
	for i := range done {
		done[i] /= width / float64(time.Second)
	}
	return done
}

// subQuantile returns the median over subWindows slices of window of the
// q-quantile of the samples completing in each slice, in ns.
func subQuantile(s series, window time.Duration, q float64) float64 {
	slices := make([]latencies, subWindows)
	for _, x := range s {
		i := int(int64(x.at) * subWindows / int64(window))
		if i < 0 {
			i = 0
		}
		if i >= subWindows {
			i = subWindows - 1
		}
		slices[i] = append(slices[i], x.lat)
	}
	var qs []float64
	for _, l := range slices {
		if len(l) > 0 {
			qs = append(qs, quantile(l.sorted(), q))
		}
	}
	return median(qs)
}

// sorted returns the samples in ascending order as float64 nanoseconds.
func (l latencies) sorted() []float64 {
	out := make([]float64, len(l))
	for i, d := range l {
		out[i] = float64(d)
	}
	sort.Float64s(out)
	return out
}

// quantile returns the nearest-rank q-quantile of ascending samples, or 0
// when there are none.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(asc)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(asc) {
		i = len(asc) - 1
	}
	return asc[i]
}

// median returns the middle value (mean of the two middle values for an
// even count) of unordered samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailQuantile returns the highest of the usual reporting percentiles that
// still leaves at least ten samples beyond it, so a tail figure always rests
// on more than one or two outliers. It returns 0.5 when n is too small for
// any of them.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9, 0.75} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.5
}

// ms and us convert nanoseconds.
func ms(ns float64) float64 { return ns / 1e6 }
func us(ns float64) float64 { return ns / 1e3 }

// ratio divides, answering 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
