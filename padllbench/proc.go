package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// procSample is a snapshot of the runtime's cumulative counters.
type procSample struct {
	allocs  uint64  // heap objects allocated
	gcCPU   float64 // CPU seconds spent in GC
	totalCP float64 // CPU seconds available to the process
}

var procMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readProc() procSample {
	s := make([]metrics.Sample, len(procMetricNames))
	for i, n := range procMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return procSample{
		allocs:  valueUint(s[0]),
		gcCPU:   valueFloat(s[1]),
		totalCP: valueFloat(s[2]),
	}
}

func valueUint(s metrics.Sample) uint64 {
	if s.Value.Kind() == metrics.KindUint64 {
		return s.Value.Uint64()
	}
	return 0
}

func valueFloat(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindFloat64 {
		return s.Value.Float64()
	}
	return 0
}

// heapSampler records the highest in-use heap (objects plus the free
// space of in-use spans, i.e. MemStats.HeapInuse) it sees, sampling every
// interval. runtime/metrics reads these without stopping the world.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler(interval time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := valueUint(s[0]) + valueUint(s[1]); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	h.wg.Wait()
	return h.peak
}
