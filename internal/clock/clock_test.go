package clock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var epoch = time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)

func TestRealNowMonotone(t *testing.T) {
	c := NewReal()
	a := c.Now()
	b := c.Now()
	if b.Before(a) {
		t.Fatalf("real clock went backwards: %v then %v", a, b)
	}
}

func TestRealSleep(t *testing.T) {
	c := NewReal()
	start := c.Now()
	c.Sleep(10 * time.Millisecond)
	if got := c.Now().Sub(start); got < 10*time.Millisecond {
		t.Fatalf("slept %v, want >= 10ms", got)
	}
}

func TestRealAfter(t *testing.T) {
	c := NewReal()
	select {
	case <-c.After(5 * time.Millisecond):
	case <-time.After(2 * time.Second):
		t.Fatal("After channel never fired")
	}
}

func TestSimNowStartsAtStart(t *testing.T) {
	c := NewSim(epoch)
	if !c.Now().Equal(epoch) {
		t.Fatalf("Now() = %v, want %v", c.Now(), epoch)
	}
}

func TestSimAdvance(t *testing.T) {
	c := NewSim(epoch)
	c.Advance(time.Minute)
	if want := epoch.Add(time.Minute); !c.Now().Equal(want) {
		t.Fatalf("Now() = %v, want %v", c.Now(), want)
	}
}

func TestSimAdvanceToBackwardsIsNoop(t *testing.T) {
	c := NewSim(epoch)
	c.Advance(time.Hour)
	c.AdvanceTo(epoch)
	if want := epoch.Add(time.Hour); !c.Now().Equal(want) {
		t.Fatalf("Now() = %v, want %v (backwards AdvanceTo must be ignored)", c.Now(), want)
	}
}

func TestSimSleepReleasesOnAdvance(t *testing.T) {
	c := NewSim(epoch)
	done := make(chan struct{})
	go func() {
		c.Sleep(10 * time.Second)
		close(done)
	}()
	// Wait for the sleeper to park.
	waitFor(t, func() bool { return c.PendingWaiters() == 1 })
	select {
	case <-done:
		t.Fatal("Sleep returned before clock advanced")
	default:
	}
	c.Advance(10 * time.Second)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Sleep did not return after sufficient Advance")
	}
}

func TestSimSleepZeroReturnsImmediately(t *testing.T) {
	c := NewSim(epoch)
	done := make(chan struct{})
	go func() {
		c.Sleep(0)
		c.Sleep(-time.Second)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Sleep(<=0) blocked")
	}
}

func TestSimAfterObservesDeadlineTime(t *testing.T) {
	c := NewSim(epoch)
	ch := c.After(3 * time.Second)
	c.Advance(10 * time.Second)
	got := <-ch
	if want := epoch.Add(3 * time.Second); !got.Equal(want) {
		t.Fatalf("After fired with t=%v, want the deadline %v", got, want)
	}
}

func TestSimWaitersReleaseInDeadlineOrder(t *testing.T) {
	c := NewSim(epoch)
	// Register out of order; deadlines at 5s, 1s and 3s.
	ch5 := c.After(5 * time.Second)
	ch1 := c.After(1 * time.Second)
	ch3 := c.After(3 * time.Second)
	fired := func(ch <-chan time.Time) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	c.Advance(2 * time.Second)
	if !fired(ch1) || fired(ch3) || fired(ch5) {
		t.Fatal("after 2s only the 1s waiter should have fired")
	}
	c.Advance(2 * time.Second)
	if !fired(ch3) || fired(ch5) {
		t.Fatal("after 4s the 3s waiter should have fired, 5s not")
	}
	c.Advance(2 * time.Second)
	if !fired(ch5) {
		t.Fatal("after 6s the 5s waiter should have fired")
	}
}

func TestSimEqualDeadlinesFIFO(t *testing.T) {
	c := NewSim(epoch)
	const n = 16
	chs := make([]<-chan time.Time, n)
	for i := 0; i < n; i++ {
		chs[i] = c.After(time.Second)
	}
	c.Advance(time.Second)
	for i, ch := range chs {
		select {
		case <-ch:
		case <-time.After(2 * time.Second):
			t.Fatalf("waiter %d never fired", i)
		}
	}
}

func TestSimNextDeadline(t *testing.T) {
	c := NewSim(epoch)
	if _, ok := c.NextDeadline(); ok {
		t.Fatal("NextDeadline reported a deadline on an idle clock")
	}
	c.After(4 * time.Second)
	c.After(2 * time.Second)
	d, ok := c.NextDeadline()
	if !ok || !d.Equal(epoch.Add(2*time.Second)) {
		t.Fatalf("NextDeadline = %v,%v; want %v,true", d, ok, epoch.Add(2*time.Second))
	}
}

func TestSimConcurrentSleepersStress(t *testing.T) {
	c := NewSim(epoch)
	const n = 64
	var released atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.Sleep(time.Duration(i%10+1) * time.Second)
			released.Add(1)
		}(i)
	}
	waitFor(t, func() bool { return c.PendingWaiters() == n })
	for i := 0; i < 10; i++ {
		c.Advance(time.Second)
	}
	wg.Wait()
	if released.Load() != n {
		t.Fatalf("released %d of %d sleepers", released.Load(), n)
	}
	if c.PendingWaiters() != 0 {
		t.Fatalf("%d waiters still parked", c.PendingWaiters())
	}
}

// timerFired reports whether tm's channel holds a value, without
// blocking.
func timerFired(tm Timer) bool {
	select {
	case <-tm.C():
		return true
	default:
		return false
	}
}

func TestSimTimerStopRemovesWaiter(t *testing.T) {
	c := NewSim(epoch)
	c.After(time.Hour) // an unrelated waiter keeps its place
	tm := c.NewTimer(10 * time.Second)
	c.After(time.Minute)
	if n := c.PendingWaiters(); n != 3 {
		t.Fatalf("%d waiters parked, want 3", n)
	}
	tm.Stop()
	if n := c.PendingWaiters(); n != 2 {
		t.Fatalf("%d waiters parked after Stop, want 2", n)
	}
	c.Advance(20 * time.Second)
	if timerFired(tm) {
		t.Fatal("stopped timer fired")
	}
	tm.Reset(5 * time.Second)
	c.Advance(5 * time.Second)
	select {
	case got := <-tm.C():
		if want := epoch.Add(25 * time.Second); !got.Equal(want) {
			t.Fatalf("re-armed timer fired with t=%v, want %v", got, want)
		}
	default:
		t.Fatal("re-armed timer never fired")
	}
	if d, _ := c.NextDeadline(); !d.Equal(epoch.Add(time.Minute)) {
		t.Fatalf("NextDeadline = %v after the timer fired, want the 1m waiter", d)
	}
}

func TestSimTimerStopAfterExpiryDrains(t *testing.T) {
	c := NewSim(epoch)
	tm := c.NewTimer(time.Second)
	c.Advance(time.Second) // fires; the caller never receives
	tm.Stop()
	if timerFired(tm) {
		t.Fatal("Stop left the expired value in the channel")
	}
	tm.Reset(time.Second)
	if timerFired(tm) {
		t.Fatal("a stale expiry survived Reset")
	}
	if n := c.PendingWaiters(); n != 1 {
		t.Fatalf("%d waiters parked after Reset, want 1", n)
	}
}

// TestRealTimerStopAfterExpiryDrains: a timer that fired unobserved
// must not deliver that stale expiry after Stop and Reset, whichever
// timer-channel semantics the module's go version selects.
func TestRealTimerStopAfterExpiryDrains(t *testing.T) {
	tm := NewReal().NewTimer(time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	tm.Stop()
	tm.Reset(time.Hour)
	if timerFired(tm) {
		t.Fatal("a stale expiry survived Stop and Reset")
	}
	tm.Stop() // armed and unobserved: returns at once
	tm.Reset(time.Millisecond)
	select {
	case <-tm.C():
	case <-time.After(2 * time.Second):
		t.Fatal("re-armed timer never fired")
	}
}

// waitFor polls cond until it is true or the test times out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}
