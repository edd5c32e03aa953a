package metrics

import (
	"sync"
	"testing"
	"time"

	"padll/internal/clock"
)

// TestRateCounterConcurrentAddsConserveTotal hammers the sharded fast
// path from many goroutines (run under -race) and checks no event is
// lost: the lifetime total and the sum over all window samples plus the
// open window must equal the number of adds.
func TestRateCounterConcurrentAddsConserveTotal(t *testing.T) {
	clk := clock.NewReal()
	rc := NewRateCounter("c", clk, 10*time.Millisecond)
	start := rc.winStart // no goroutine has touched rc yet
	const (
		workers = 8
		perG    = 20000
	)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				rc.Add(1)
			}
		}()
	}
	// Concurrent readers force window rolls while adds are in flight.
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rc.LastWindowRate()
			rc.Total()
			time.Sleep(time.Millisecond)
		}
	}()
	for rc.Total() < workers*perG {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if got := rc.Total(); got != workers*perG {
		t.Fatalf("Total = %d, want %d", got, workers*perG)
	}
	// Every event must land in exactly one sample: closed windows plus
	// the flushed partial tail.
	s := rc.Flush()
	var events float64
	prev := start
	for _, p := range s.Points {
		events += p.Value * p.T.Sub(prev).Seconds()
		prev = p.T
	}
	// Every sample spans from the previous one (the first from the
	// counter's start): a full window for a closed sample, the partial
	// tail for the flushed one — which is the only sample when all adds
	// finish inside the first window. Float accumulation keeps this exact
	// well within 0.5 for 160k events.
	if diff := events - float64(workers*perG); diff > 0.5 || diff < -0.5 {
		t.Fatalf("window samples account for %.1f events, want %d", events, workers*perG)
	}
}

// TestRateCounterSimDeterminism replays the same add schedule on two
// simulated clocks and requires byte-identical series: the sharded fast
// path must not perturb single-goroutine simulated runs.
func TestRateCounterSimDeterminism(t *testing.T) {
	epoch := time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)
	run := func() *Series {
		clk := clock.NewSim(epoch)
		rc := NewRateCounter("c", clk, time.Second)
		for i := 0; i < 500; i++ {
			rc.Add(int64(i % 7))
			clk.Advance(137 * time.Millisecond)
		}
		return rc.Flush()
	}
	a, b := run(), run()
	if len(a.Points) != len(b.Points) {
		t.Fatalf("series lengths differ: %d vs %d", len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		if !a.Points[i].T.Equal(b.Points[i].T) || a.Points[i].Value != b.Points[i].Value {
			t.Fatalf("point %d differs: %+v vs %+v", i, a.Points[i], b.Points[i])
		}
	}
}

// TestRateCounterBoundaryAttribution pins the exact window-edge semantics
// the sharded fast path must preserve: an add exactly at the window end
// closes the window first (strict `<` on the fast path mirrors rollLocked's
// `>=`), so the event belongs to the next window.
func TestRateCounterBoundaryAttribution(t *testing.T) {
	epoch := time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)
	clk := clock.NewSim(epoch)
	rc := NewRateCounter("c", clk, time.Second)
	rc.Add(3)
	clk.Advance(time.Second) // exactly the boundary
	rc.Add(5)                // must open window 2, closing window 1 at 3 events
	clk.Advance(time.Second)
	s := rc.Flush()
	if len(s.Points) < 2 {
		t.Fatalf("want >= 2 samples, got %d", len(s.Points))
	}
	if s.Points[0].Value != 3 {
		t.Errorf("window 1 rate = %v, want 3", s.Points[0].Value)
	}
	if s.Points[1].Value != 5 {
		t.Errorf("window 2 rate = %v, want 5", s.Points[1].Value)
	}
	if got := rc.Total(); got != 8 {
		t.Errorf("Total = %d, want 8", got)
	}
}

func BenchmarkRateCounterAddSerial(b *testing.B) {
	rc := NewRateCounter("c", clock.NewReal(), time.Second)
	now := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc.AddAt(1, now)
	}
}

func BenchmarkRateCounterAddParallel(b *testing.B) {
	rc := NewRateCounter("c", clock.NewReal(), time.Second)
	now := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			rc.AddAt(1, now)
		}
	})
}
