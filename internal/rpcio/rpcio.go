// Package rpcio provides the wire between PADLL's control plane and its
// data-plane stages. The paper uses gRPC (§III-C); this implementation
// uses one versioned binary frame protocol over TCP (wirecodec.go) for
// all of it: every stage exposes a typed control service (a batch of
// rule, rate and mode operations with an incremental statistics
// collect, plus a health probe), aggregators expose the same shape one
// tier up, and the control plane exposes a registration service stages
// dial when their job starts (§III-B "orchestrating stages from the
// same job").
package rpcio

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"padll/internal/policy"
	"padll/internal/stage"
)

// Registration is what a stage announces to the control plane at startup:
// the identity attributes the controller groups stages by (job-ID, PID,
// hostname, user) plus the address of the stage's control service.
//
//lint:wire
type Registration struct {
	Info stage.Info
	// Addr is the host:port of the stage's control service.
	Addr string
}

// ---- stage-side control service ----

// StageService exposes a stage's control operations on the wire: the
// batched delta protocol (batch.go) plus a health probe.
type StageService struct {
	stg *stage.Stage
	// epoch identifies this service instance to delta-collect clients;
	// see StatsDelta.Epoch.
	epoch uint64
	// trackers holds one delta baseline per collecting client (keyed by
	// BatchArgs.ClientID), bounded by maxDeltaTrackers with LRU
	// eviction; trackUse is the eviction clock. See batch.go.
	trackMu  sync.Mutex
	trackers map[uint64]*deltaTracker
	trackUse uint64

	calls         atomic.Uint64
	batchedOps    atomic.Uint64
	deltaCollects atomic.Uint64
	fullCollects  atomic.Uint64
}

// NewStageService wraps a stage for serving, either over a listener
// (ServeService, or ServeMux behind a FrameServer) or in process
// (NewEncodedLoopback).
func NewStageService(stg *stage.Stage) *StageService {
	return &StageService{stg: stg, epoch: newEpoch()}
}

// Served reports cumulative service-side counters.
func (s *StageService) Served() ServiceStats {
	return ServiceStats{
		Calls:         s.calls.Load(),
		BatchedOps:    s.batchedOps.Load(),
		DeltaCollects: s.deltaCollects.Load(),
		FullCollects:  s.fullCollects.Load(),
	}
}

// HealthProbe is the liveness-check request both the stage service and
// the registrar accept. Seq is echoed back so a prober can match replies
// to probes across retries.
//
//lint:wire
type HealthProbe struct {
	Seq uint64
}

// StageHealth is a stage's health report: identity plus the degraded
// accounting the monitor surfaces.
//
//lint:wire
type StageHealth struct {
	Seq             uint64
	Info            stage.Info
	Degraded        bool
	DegradedSeconds float64
	// Rules is the number of installed rules (the frozen set a degraded
	// stage keeps enforcing).
	Rules int
}

// Health reports the stage's liveness and degraded accounting.
func (s *StageService) Health(probe HealthProbe, reply *StageHealth) error {
	s.calls.Add(1)
	*reply = StageHealth{
		Seq:             probe.Seq,
		Info:            s.stg.Info(),
		Degraded:        s.stg.Degraded(),
		DegradedSeconds: s.stg.DegradedFor().Seconds(),
		Rules:           len(s.stg.Rules()),
	}
	return nil
}

// DefaultMaxConns bounds how many connections one control endpoint
// serves concurrently. A stage normally has a handful of clients (its
// controller, maybe an operator CLI); the bound exists so a connection
// flood degrades into queued accepts instead of unbounded goroutines.
const DefaultMaxConns = 128

// serveBounded accepts connections on l and hands each to handler, with
// a hard bound on concurrently served connections: the accept loop
// takes a semaphore slot before accepting, so at most maxConns handler
// goroutines exist and excess dials queue in the listener backlog. The
// handler must serve the connection to completion and return when it
// dies. The returned stop function is deterministic: it closes the
// listener, closes every in-flight connection (unblocking their
// handlers), and waits for all goroutines to finish.
func serveBounded(l net.Listener, handler func(net.Conn), maxConns int) (stop func()) {
	sem := make(chan struct{}, maxConns)
	var (
		mu      sync.Mutex
		stopped bool
		live    = make(map[net.Conn]struct{})
	)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			sem <- struct{}{}
			conn, err := l.Accept()
			if err != nil {
				<-sem
				return // listener closed
			}
			mu.Lock()
			if stopped {
				mu.Unlock()
				// Lost the race with stop(): this connection would
				// outlive the server, so refuse it.
				_ = conn.Close()
				<-sem
				continue
			}
			live[conn] = struct{}{}
			mu.Unlock()
			wg.Add(1)
			go func(conn net.Conn) {
				defer wg.Done()
				defer func() { <-sem }()
				handler(conn)
				mu.Lock()
				delete(live, conn)
				mu.Unlock()
			}(conn)
		}
	}()
	return func() {
		// Closing an already-serving listener: the only error is "already
		// closed", which a stop function tolerates by design.
		_ = l.Close()
		mu.Lock()
		stopped = true
		for conn := range live {
			// Force in-flight connections down; the frame loop returns
			// once its connection dies, and handler goroutines drain.
			_ = conn.Close()
		}
		mu.Unlock()
		wg.Wait()
	}
}

// ServeStage starts serving the stage's control service on l. It
// returns immediately; the returned stop function closes the listener
// and every in-flight connection, then waits for all serving goroutines
// to exit.
func ServeStage(l net.Listener, stg *stage.Stage) (stop func()) {
	return ServeService(l, NewStageService(stg))
}

// ServeService is ServeStage for a caller-built StageService — the form
// to use when the caller also wants the service (for Served counters).
func ServeService(l net.Listener, svc *StageService) (stop func()) {
	fs := NewFrameServer()
	fs.Add(svc)
	return ServeMux(l, fs)
}

// ServeMux serves every service registered on fs behind one listener:
// clients resolve a stage or aggregator ID to a channel with the attach
// handshake and multiplex all their calls over one connection per
// endpoint; registrar clients address channel 0 directly. Register
// services with fs.Add before or after this call.
func ServeMux(l net.Listener, fs *FrameServer) (stop func()) {
	return serveBounded(l, fs.serveFrameConn, DefaultMaxConns)
}

// Default deadlines for control-plane RPCs. A single hung peer must
// never block the feedback loop indefinitely (§III-C).
const (
	DefaultDialTimeout = 2 * time.Second
	DefaultCallTimeout = 5 * time.Second
)

// StageHandle is the control plane's typed client for one stage,
// layered over a Transport: TCP frames with redial, deadlines and
// seeded backoff for remote stages (DialStage), or the in-process
// encoded loopback (EncodedLoopbackStage). The handle owns the client
// half of the batched delta protocol (ExecBatch/CollectDelta in
// batch.go); its single-operation methods are one-op batches.
type StageHandle struct {
	t Transport

	// bmu guards the batched-protocol state: the reusable args/reply
	// buffers and the merged delta-collect snapshot.
	bmu    sync.Mutex
	bargs  BatchArgs
	breply BatchReply
	dstate DeltaState
}

// DialStage connects to a stage's control service over TCP. The wire is
// the versioned binary frame codec, multiplexed: every handle to the
// same endpoint address shares one TCP connection (frames carry stream
// IDs; a demux goroutine routes replies). WithMuxStage routes calls to
// a named stage on a multi-stage (ServeMux) endpoint.
func DialStage(addr string, opts ...DialOption) (*StageHandle, error) {
	cfg := defaultDialConfig()
	for _, o := range opts {
		o(&cfg)
	}
	t := newFrameTransport(addr, cfg)
	if _, err := t.ensureConn(); err != nil {
		return nil, err
	}
	return &StageHandle{t: t}, nil
}

// NewStageHandle wraps an arbitrary transport (tests inject faulty
// ones).
func NewStageHandle(t Transport) *StageHandle { return &StageHandle{t: t} }

// Addr returns the stage's address.
func (h *StageHandle) Addr() string { return h.t.Addr() }

// WireStats reports the handle's cumulative traffic accounting.
func (h *StageHandle) WireStats() WireStats { return h.t.WireStats() }

// execOp runs one stage operation as a one-op batch and reports its
// Found result.
func (h *StageHandle) execOp(op StageOp) (bool, error) {
	results, err := h.ExecBatchInto([]StageOp{op}, false, nil)
	if err != nil {
		return false, err
	}
	if len(results) != 1 {
		return false, fmt.Errorf("rpcio: stage %s: %d results for a one-op batch", h.Addr(), len(results))
	}
	return results[0].Found, nil
}

// ApplyRule installs or updates a rule on the remote stage.
func (h *StageHandle) ApplyRule(r policy.Rule) error {
	_, err := h.execOp(StageOp{Kind: OpApplyRule, Rule: r})
	return err
}

// RemoveRule deletes a rule on the remote stage, reporting whether it
// existed.
func (h *StageHandle) RemoveRule(id string) (bool, error) {
	return h.execOp(StageOp{Kind: OpRemoveRule, ID: id})
}

// SetRate retunes a queue on the remote stage, reporting whether the
// rule existed.
func (h *StageHandle) SetRate(id string, rate float64) (bool, error) {
	return h.execOp(StageOp{Kind: OpSetRate, ID: id, Rate: rate})
}

// SetMode switches the remote stage's mode.
func (h *StageHandle) SetMode(m stage.Mode) error {
	_, err := h.execOp(StageOp{Kind: OpSetMode, Mode: m})
	return err
}

// Health fetches the stage's health report.
func (h *StageHandle) Health(seq uint64) (StageHealth, error) {
	var st StageHealth
	err := h.t.Call(MethodHealth, &HealthProbe{Seq: seq}, &st)
	return st, err
}

// Close tears down the transport; subsequent calls fail without
// redialing.
func (h *StageHandle) Close() error { return h.t.Close() }

// ---- stage-side registrar client ----

// registrarCall performs one registrar exchange on a fresh connection
// of its own: one attempt, the dial bounded by dialTO and the call by
// callTO, never retried — a stage's startup, shutdown and heartbeat
// paths must neither hang on a dead controller nor hide its death
// behind retries.
func registrarCall(controllerAddr string, m Method, args, reply any, dialTO, callTO time.Duration) error {
	cfg := defaultDialConfig()
	cfg.dialTO, cfg.timeout = dialTO, callTO
	cfg.backoff = Backoff{Attempts: 1}
	cfg.dialer = &frameDialer{}
	t := newFrameTransport(controllerAddr, cfg)
	err := t.Call(m, args, reply)
	// Closing releases the private connection; a transport error has
	// already killed it, and a clean one has nothing left to flush.
	_ = t.Close()
	if err != nil {
		return fmt.Errorf("rpcio: controller %s: %v: %w", controllerAddr, m, err)
	}
	return nil
}

// RegisterWithController dials the control plane's registrar and announces
// a stage served at stageAddr.
func RegisterWithController(controllerAddr string, info stage.Info, stageAddr string) error {
	return registrarCall(controllerAddr, MethodRegister,
		&Registration{Info: info, Addr: stageAddr}, &struct{}{},
		DefaultDialTimeout, DefaultCallTimeout)
}

// DeregisterFromController announces a stage's departure.
func DeregisterFromController(controllerAddr, stageID string) error {
	return registrarCall(controllerAddr, MethodDeregister, &stageID, &struct{}{},
		DefaultDialTimeout, DefaultCallTimeout)
}

// ProbeController performs one bounded controller liveness check: dial
// the registrar, exchange a Registrar.Ping, close — each step bounded
// by timeout. A nil error means the control plane is reachable and
// serving.
func ProbeController(controllerAddr string, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	var echo HealthProbe
	return registrarCall(controllerAddr, MethodRegistrarPing, &HealthProbe{Seq: 1}, &echo, timeout, timeout)
}
