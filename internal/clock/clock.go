// Package clock abstracts time so that every rate-sensitive component in
// PADLL (token buckets, feedback control loops, trace replay) can run
// either against the wall clock or against a simulated clock that replays
// a 45-minute experiment in milliseconds with identical arithmetic.
package clock

import (
	"container/heap"
	"sync"
	"time"
)

// Clock is the minimal time source used throughout the repository.
// Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// Sleep blocks the caller for d. On a simulated clock the caller is
	// parked until the simulation advances past Now()+d.
	Sleep(d time.Duration)
	// After returns a channel that receives the then-current time once d
	// has elapsed.
	After(d time.Duration) <-chan time.Time
	// NewTimer returns an armed, stoppable timer that fires after d.
	// Unlike After, a timer stopped early holds no clock resources, and
	// it can be re-armed with Reset instead of allocated afresh.
	NewTimer(d time.Duration) Timer
}

// Timer is a reusable one-shot timer on a Clock. It is not safe for
// concurrent use: one goroutine arms it, waits on C and stops it.
type Timer interface {
	// C delivers the then-current time once the timer expires.
	C() <-chan time.Time
	// Stop disarms a timer whose channel the caller has not received
	// from since it was last armed. When Stop returns, C holds no value
	// and none will arrive until the next Reset. Calling Stop on a timer
	// that already delivered to the caller, or twice for one arming, is
	// a misuse.
	Stop()
	// Reset re-arms a stopped timer, or one whose expiry the caller
	// received, to fire after d.
	Reset(d time.Duration)
}

// Real is a Clock backed by the wall clock.
type Real struct{}

// NewReal returns the wall-clock Clock.
func NewReal() Real { return Real{} }

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// NewTimer implements Clock.
func (Real) NewTimer(d time.Duration) Timer { return &realTimer{t: time.NewTimer(d)} }

// realTimer is a *time.Timer under the Timer contract.
type realTimer struct{ t *time.Timer }

func (t *realTimer) C() <-chan time.Time { return t.t.C }

func (t *realTimer) Stop() {
	if !t.t.Stop() && cap(t.t.C) > 0 {
		// Buffered timer channels (asynctimerchan=1, the semantics of
		// modules declaring go 1.22 or older): the timer already fired,
		// and its value is in the channel or about to be sent there.
		// The caller never received it, so this receive cannot block
		// for long, and it keeps a stale expiry from surviving into the
		// next Reset. Unbuffered (Go 1.23+) timer channels guarantee
		// that no stale value is delivered after Stop.
		<-t.t.C
	}
}

func (t *realTimer) Reset(d time.Duration) { t.t.Reset(d) }

// Sim is a manually advanced simulated clock. Goroutines that Sleep or
// select on After are parked in a waiter queue ordered by deadline and are
// released when Advance (or AdvanceTo) moves the clock past their deadline.
//
// The zero value is not usable; construct with NewSim.
type Sim struct {
	mu      sync.Mutex
	now     time.Time
	waiters waiterHeap
	seq     int64 // tiebreaker so equal deadlines release FIFO
}

// NewSim returns a simulated clock whose current instant is start.
func NewSim(start time.Time) *Sim {
	return &Sim{now: start}
}

type waiter struct {
	deadline time.Time
	seq      int64
	ch       chan time.Time
	index    int // position in the heap; -1 once released or removed
}

type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if h[i].deadline.Equal(h[j].deadline) {
		return h[i].seq < h[j].seq
	}
	return h[i].deadline.Before(h[j].deadline)
}
func (h waiterHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *waiterHeap) Push(x interface{}) {
	w := x.(*waiter)
	w.index = len(*h)
	*h = append(*h, w)
}
func (h *waiterHeap) Pop() interface{} {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	w.index = -1
	*h = old[:n-1]
	return w
}

// Now implements Clock.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Sleep implements Clock. It parks the calling goroutine until the clock
// is advanced past Now()+d. Sleeping for d <= 0 returns immediately.
func (s *Sim) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-s.After(d)
}

// After implements Clock.
func (s *Sim) After(d time.Duration) <-chan time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- s.now //lint:allow lockcheck ch is freshly made with capacity 1; the send cannot block
		return ch
	}
	s.seq++
	heap.Push(&s.waiters, &waiter{deadline: s.now.Add(d), seq: s.seq, ch: ch})
	return ch
}

// NewTimer implements Clock. The timer parks as an ordinary waiter, so
// Advance releases it in deadline order; Stop removes it from the queue.
func (s *Sim) NewTimer(d time.Duration) Timer {
	t := &simTimer{s: s, w: waiter{ch: make(chan time.Time, 1), index: -1}}
	t.Reset(d)
	return t
}

type simTimer struct {
	s *Sim
	w waiter
}

func (t *simTimer) C() <-chan time.Time { return t.w.ch }

func (t *simTimer) Stop() {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	if t.w.index >= 0 {
		heap.Remove(&t.s.waiters, t.w.index)
		return
	}
	// Advance released the timer under s.mu, so its value is already in
	// the channel: drain it.
	select { //lint:allow lockcheck the select has a default case, so it never blocks
	case <-t.w.ch:
	default:
	}
}

func (t *simTimer) Reset(d time.Duration) {
	s := t.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if d <= 0 {
		t.w.ch <- s.now //lint:allow lockcheck the timer is disarmed and drained, so its capacity-1 channel is empty and the send cannot block
		return
	}
	s.seq++
	t.w.deadline = s.now.Add(d)
	t.w.seq = s.seq
	heap.Push(&s.waiters, &t.w)
}

// Advance moves the clock forward by d, releasing every waiter whose
// deadline falls within the advanced window, in deadline order.
func (s *Sim) Advance(d time.Duration) {
	s.mu.Lock()
	s.AdvanceToLocked(s.now.Add(d))
	s.mu.Unlock()
}

// AdvanceTo moves the clock forward to instant t (no-op if t is not after
// the current instant), releasing waiters in deadline order.
func (s *Sim) AdvanceTo(t time.Time) {
	s.mu.Lock()
	s.AdvanceToLocked(t)
	s.mu.Unlock()
}

// AdvanceToLocked is Advance's core; the caller must hold s.mu.
func (s *Sim) AdvanceToLocked(t time.Time) {
	if t.Before(s.now) {
		return
	}
	for len(s.waiters) > 0 && !s.waiters[0].deadline.After(t) {
		w := heap.Pop(&s.waiters).(*waiter)
		// Waiters observe the clock at their own deadline, not the final
		// target, so cascaded timers fire in causal order.
		if w.deadline.After(s.now) {
			s.now = w.deadline
		}
		w.ch <- s.now
	}
	s.now = t
}

// PendingWaiters reports how many goroutines are currently parked on the
// clock. Useful for tests and for the simulator's quiescence detection.
func (s *Sim) PendingWaiters() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.waiters)
}

// NextDeadline returns the earliest parked deadline and true, or the zero
// time and false when no waiter is parked.
func (s *Sim) NextDeadline() (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.waiters) == 0 {
		return time.Time{}, false
	}
	return s.waiters[0].deadline, true
}
