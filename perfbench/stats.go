package main

import (
	"runtime/metrics"
	"sort"
	"time"
)

// median returns the median of xs (the mean of the middle two for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile returns the nearest-rank q-quantile of sorted samples.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// heapSampler tracks the peak of live-and-unswept heap object bytes,
// read from runtime/metrics (which does not stop the world) every
// period.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler(period time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: heapMetric}}
		var peak uint64
		read := func() {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
		}
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			read()
			select {
			case <-t.C:
			case <-h.stop:
				read()
				h.done <- peak
				return
			}
		}
	}()
	return h
}

// peak stops the sampler and returns the highest value seen.
func (h *heapSampler) peak() uint64 {
	close(h.stop)
	return <-h.done
}
