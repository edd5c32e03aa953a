// Package interpose implements the transparent POSIX interception layer —
// the role LD_PRELOAD plays in the paper's C++ prototype (§III-C). A Shim
// wraps any posix.FileSystem (typically a mount.Router spanning the PFS
// and local file systems) and forwards every one of the 42 interposed
// calls, first classifying it (request differentiation, §III-A) and, for
// requests bound to a controlled file system, passing it through the
// data-plane stage's rate-limiting queues.
//
// Go cannot inject itself into a foreign process's libc, so the shim sits
// at the same call boundary in-process: applications built against
// posix.Client swap their backend for a Shim and are interposed with no
// other change — preserving the transparency property the evaluation
// measures (passthrough overhead, §IV-A).
package interpose

import (
	"sync/atomic"
	"time"

	"padll/internal/clock"
	"padll/internal/metrics"
	"padll/internal/mount"
	"padll/internal/posix"
	"padll/internal/stage"
)

// ControlDecider reports whether a request targets a controlled file
// system (and therefore must pass through the stage's queues).
type ControlDecider func(req *posix.Request) bool

// Shim is the interposition layer. It implements posix.FileSystem.
type Shim struct {
	backend posix.FileSystem
	// router is the backend when it is a *mount.Router and no decider
	// was given: the shim then resolves each request once and decides
	// and forwards from that one route. Nil otherwise.
	router *mount.Router
	decide ControlDecider // used only when router is nil
	stg    *stage.Stage
	clk    clock.Clock

	// Every call lands in exactly one of controlled and bypassed, so
	// their sum is the interception count.
	controlled atomic.Int64
	bypassed   atomic.Int64
	perOp      [posix.NumOps]atomic.Int64
	latency    *metrics.Histogram // end-to-end latency of controlled calls
}

var _ posix.FileSystem = (*Shim)(nil)

// Option configures a Shim.
type Option func(*Shim)

// WithDecider overrides how the shim decides which requests to control.
func WithDecider(d ControlDecider) Option {
	return func(s *Shim) { s.decide = d }
}

// New returns a shim interposing on backend with the given data-plane
// stage. When the backend is a *mount.Router the default decider controls
// exactly the requests that resolve to a Controlled mount (requests to
// xfs/NFS-like mounts bypass throttling, as in the paper); for any other
// backend every request is controlled.
func New(backend posix.FileSystem, stg *stage.Stage, clk clock.Clock, opts ...Option) *Shim {
	s := &Shim{
		backend: backend,
		stg:     stg,
		clk:     clk,
		latency: metrics.NewLatencyHistogram(),
	}
	for _, o := range opts {
		o(s)
	}
	if s.decide == nil {
		if r, ok := backend.(*mount.Router); ok {
			s.router = r
		} else {
			s.decide = func(*posix.Request) bool { return true }
		}
	}
	return s
}

// Apply implements posix.FileSystem: intercept, differentiate, throttle,
// submit. The shim adds no allocations of its own on top of the backend.
//
//lint:hotpath
func (s *Shim) Apply(req *posix.Request, rep *posix.Reply) error {
	if req.Op.Valid() {
		s.perOp[req.Op].Add(1)
	}
	if req.Issued.IsZero() {
		req.Issued = s.stg.HotNow()
	}

	var rt mount.Route
	var routeErr error
	var controlled bool
	if s.router != nil {
		// An unresolvable request is bypassed and fails below; a
		// rename off a controlled mount is enforced, then fails.
		rt, routeErr = s.router.Route(req)
		controlled = rt.M != nil && rt.M.Controlled
	} else {
		controlled = s.decide(req)
	}

	if !controlled {
		// Requests to file systems other than the PFS are submitted
		// directly, without any throttling (§III-A).
		s.bypassed.Add(1)
		return s.forward(rt, routeErr, req, rep)
	}

	// Sample end-to-end latency 1-in-64 with exact clock reads: the
	// histogram is diagnostic, and a clock read per call would dominate
	// the interposition cost the overhead experiment measures.
	sampled := s.controlled.Add(1)&63 == 0
	var start time.Time
	if sampled {
		start = s.clk.Now()
	}
	if err := s.stg.Enforce(req); err != nil {
		return err
	}
	err := s.forward(rt, routeErr, req, rep)
	if sampled {
		s.latency.Observe(s.clk.Now().Sub(start))
	}
	return err
}

// forward submits req below the shim: along the route Apply resolved
// when the shim routes, through the backend's own Apply otherwise.
func (s *Shim) forward(rt mount.Route, routeErr error, req *posix.Request, rep *posix.Reply) error {
	if s.router == nil {
		return s.backend.Apply(req, rep)
	}
	if routeErr != nil {
		return routeErr
	}
	return s.router.ApplyRoute(rt, req, rep)
}

// Stats reports interception counters.
type Stats struct {
	// Intercepted is the total number of calls seen.
	Intercepted int64
	// Controlled is the number routed through stage queues.
	Controlled int64
	// Bypassed is the number forwarded without throttling.
	Bypassed int64
	// PerOp is the per-operation interception count.
	PerOp map[posix.Op]int64
	// MeanLatencySeconds is the mean end-to-end latency of controlled
	// calls (queueing + backend service).
	MeanLatencySeconds float64
}

// Stats snapshots the shim's counters.
func (s *Shim) Stats() Stats {
	out := Stats{
		Controlled:         s.controlled.Load(),
		Bypassed:           s.bypassed.Load(),
		PerOp:              make(map[posix.Op]int64),
		MeanLatencySeconds: s.latency.Mean(),
	}
	out.Intercepted = out.Controlled + out.Bypassed
	for i := range s.perOp {
		if n := s.perOp[i].Load(); n > 0 {
			out.PerOp[posix.Op(i)] = n
		}
	}
	return out
}

// Stage returns the shim's data-plane stage.
func (s *Shim) Stage() *stage.Stage { return s.stg }
