package rpcio

import (
	"math/rand"
	"time"

	"padll/internal/clock"
)

// Backoff is a seeded, jittered exponential backoff schedule. All waits
// run on an injected clock.Clock, and the jitter PRNG is seeded, so a
// retry sequence is byte-identical across runs under the simulated clock
// — the property the chaos harness asserts.
//
// The zero value is usable: it means "no retries" (a single attempt).
type Backoff struct {
	// Base is the delay before the first retry (default 50ms when
	// Attempts > 1).
	Base time.Duration
	// Max caps the grown delay (default 2s).
	Max time.Duration
	// Factor is the per-retry growth multiplier (default 2).
	Factor float64
	// Jitter is the fraction of each delay drawn uniformly at random and
	// added on top, in [0, Jitter*delay) (default 0, fully deterministic).
	Jitter float64
	// Attempts is the total number of tries including the first
	// (0 or 1 = no retries).
	Attempts int
	// Seed seeds the jitter PRNG.
	Seed int64
}

// DefaultBackoff is the schedule dial and call paths use unless
// overridden: four attempts at 50ms/100ms/200ms keep transient blips
// invisible while a dead peer still fails in well under a second.
var DefaultBackoff = Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second, Factor: 2, Attempts: 4}

func (b Backoff) withDefaults() Backoff {
	if b.Attempts < 1 {
		b.Attempts = 1
	}
	if b.Base <= 0 {
		b.Base = 50 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 2 * time.Second
	}
	if b.Factor < 1 {
		b.Factor = 2
	}
	return b
}

// Delays materializes the full retry-delay sequence (Attempts-1 entries),
// jitter included, by draining the same retrier a call sleeps on. For a
// given Backoff value the result is always the same slice: the schedule
// is a pure function of its fields.
func (b Backoff) Delays() []time.Duration {
	r := newRetrier(b)
	if r.remain <= 0 {
		return nil
	}
	delays := make([]time.Duration, 0, r.remain)
	for d, ok := r.delay(); ok; d, ok = r.delay() {
		delays = append(delays, d)
	}
	return delays
}

// retrier hands out one backoff schedule's delays sequentially. It is a
// plain value owned by one logical operation (one Call, one Retry), so
// it needs no lock, and the jitter PRNG is seeded only when the first
// jittered delay is drawn: a call that succeeds on its first attempt —
// the steady state — never pays for the generator.
type retrier struct {
	b      Backoff
	rng    *rand.Rand
	next   time.Duration
	remain int
}

func newRetrier(b Backoff) retrier {
	b = b.withDefaults()
	return retrier{b: b, next: b.Base, remain: b.Attempts - 1}
}

// delay returns the next backoff delay and true, or false when the
// attempt budget is spent.
func (r *retrier) delay() (time.Duration, bool) {
	if r.remain <= 0 {
		return 0, false
	}
	r.remain--
	step := r.next
	if step > r.b.Max {
		step = r.b.Max
	}
	if r.b.Jitter > 0 {
		if r.rng == nil {
			r.rng = rand.New(rand.NewSource(r.b.Seed))
		}
		step += time.Duration(r.b.Jitter * float64(step) * r.rng.Float64())
	}
	r.next = time.Duration(float64(r.next) * r.b.Factor)
	if r.next > r.b.Max {
		r.next = r.b.Max
	}
	return step, true
}

// Retry runs fn until it succeeds or b's attempt budget is exhausted,
// sleeping the backoff delays on clk between failures. It returns the
// last error (nil on success).
func Retry(clk clock.Clock, b Backoff, fn func() error) error {
	r := newRetrier(b)
	for {
		err := fn()
		if err == nil {
			return nil
		}
		d, ok := r.delay()
		if !ok {
			return err
		}
		clk.Sleep(d)
	}
}
