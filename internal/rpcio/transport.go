// Transport abstraction for the control plane's stage-facing wire.
//
// The paper's control plane talks gRPC to its stages (§III-C); this
// reproduction's wire is the versioned binary frame protocol over TCP.
// Both are request/response transports, and everything above them — the
// typed StageHandle API, the batched delta protocol, the controller —
// only needs "issue one numbered call, get one reply". Transport
// captures that contract so the same control plane can run over a real
// socket (frameTransport) or through the same frame codec in process
// (EncodedLoopback), which is what sim-clock tests, the chaos harness,
// and thousand-stage benchmarks want.
package rpcio

import (
	"fmt"
	"sync"
	"time"

	"padll/internal/clock"
)

// Transport moves one typed RPC to a stage's control service and back.
// Implementations must be safe for concurrent use.
type Transport interface {
	// Call performs one RPC. args and reply are the pointer forms of
	// the method's wire types.
	Call(m Method, args, reply any) error
	// WireStats reports cumulative traffic accounting.
	WireStats() WireStats
	// Addr identifies the peer (host:port, or "loopback").
	Addr() string
	// Close tears the transport down; subsequent calls fail.
	Close() error
}

// WireStats is a transport's cumulative traffic accounting. Calls counts
// round trips issued (including retries); bytes are exact frame bytes in
// each direction.
type WireStats struct {
	Calls        uint64
	BytesRead    uint64
	BytesWritten uint64
}

// dialConfig is the resolved option set behind DialStage.
type dialConfig struct {
	clk     clock.Clock
	timeout time.Duration
	dialTO  time.Duration
	backoff Backoff
	stageID string
	dialer  *frameDialer
}

func defaultDialConfig() dialConfig {
	return dialConfig{
		clk:     clock.NewReal(),
		timeout: DefaultCallTimeout,
		dialTO:  DefaultDialTimeout,
		backoff: DefaultBackoff,
	}
}

// DialOption configures the transport behind a StageHandle.
type DialOption func(*dialConfig)

// WithCallTimeout bounds each RPC (0 disables the deadline).
func WithCallTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) { c.timeout = d }
}

// WithDialTimeout bounds each connection attempt.
func WithDialTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) { c.dialTO = d }
}

// WithBackoff sets the redial/retry schedule.
func WithBackoff(b Backoff) DialOption {
	return func(c *dialConfig) { c.backoff = b }
}

// WithHandleClock sets the clock deadlines and backoff sleeps run on
// (default: wall clock).
func WithHandleClock(clk clock.Clock) DialOption {
	return func(c *dialConfig) { c.clk = clk }
}

// WithMuxStage names the stage to address on a multi-stage (ServeMux)
// endpoint: the handle resolves the ID to a frame channel with the
// attach handshake and shares the endpoint's one connection with every
// other handle.
func WithMuxStage(stageID string) DialOption {
	return func(c *dialConfig) { c.stageID = stageID }
}

// LoopbackAddr is what in-process transports report from Addr.
const LoopbackAddr = "loopback"

// FrameDir distinguishes the two directions a fault hook can intercept
// on an EncodedLoopback.
type FrameDir uint8

const (
	// FrameRequest is the client→service direction: a dropped request
	// never reaches the service (no state changes).
	FrameRequest FrameDir = iota
	// FrameReply is the service→client direction: a dropped reply means
	// the service already applied the call but the client never learned
	// — the case that forces a delta-protocol full resync.
	FrameReply
)

// FrameFault inspects one frame about to cross an EncodedLoopback and
// may return an error to simulate losing it at that frame boundary.
type FrameFault func(dir FrameDir, m Method) error

// EncodedLoopback is the in-process transport, and it still pays the
// wire: every call round-trips through the binary frame codec — encode
// args, decode into the service's reusable session, dispatch, encode
// the reply, decode into the caller's value — with exact frame-byte
// accounting but no socket and no goroutine handoff. Deterministic and
// single-threaded per call, it is what sim-clock tests, the chaos
// harness's batched mode and the thousand-stage benchmarks run on: the
// codec's cost and its bugs are in the loop, the kernel's are not. A FrameFault hook injects
// losses at frame granularity.
type EncodedLoopback struct {
	mu     sync.Mutex
	fs     *FrameServer
	sess   frameSession
	enc    []byte
	rep    []byte
	fault  FrameFault
	closed bool

	calls        uint64
	bytesRead    uint64
	bytesWritten uint64
}

// NewEncodedLoopback returns a codec-exercising in-process transport
// bound to svc.
func NewEncodedLoopback(svc *StageService) *EncodedLoopback {
	fs := NewFrameServer()
	fs.Add(svc)
	return &EncodedLoopback{fs: fs}
}

// EncodedLoopbackStage returns a handle driving svc through the binary
// codec in process; see EncodedLoopback.
func EncodedLoopbackStage(svc *StageService) *StageHandle {
	return &StageHandle{t: NewEncodedLoopback(svc)}
}

// NewEncodedLoopbackAgg returns a codec-exercising in-process transport
// bound to an aggregator service — the aggregator analogue of
// NewEncodedLoopback, sharing the same frame dispatch path a TCP
// connection would take.
func NewEncodedLoopbackAgg(svc *AggService) *EncodedLoopback {
	fs := NewFrameServer()
	fs.AddAgg(svc)
	return &EncodedLoopback{fs: fs}
}

// SetFault installs (or, with nil, removes) the frame-loss hook.
func (l *EncodedLoopback) SetFault(f FrameFault) {
	l.mu.Lock()
	l.fault = f
	l.mu.Unlock()
}

// Addr implements Transport.
func (l *EncodedLoopback) Addr() string { return LoopbackAddr }

// WireStats implements Transport: bytes are exact frame bytes both
// directions, as a TCP frame connection would carry.
func (l *EncodedLoopback) WireStats() WireStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return WireStats{Calls: l.calls, BytesRead: l.bytesRead, BytesWritten: l.bytesWritten}
}

// Close implements Transport.
func (l *EncodedLoopback) Close() error {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	return nil
}

// Call implements Transport: one full encode→dispatch→decode round trip
// through the binary codec.
func (l *EncodedLoopback) Call(m Method, args, reply any) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("rpcio: stage %s: connection closed", LoopbackAddr)
	}
	l.calls++

	frame, err := appendCallArgs(frameStart(l.enc), m, args)
	if err != nil {
		return err
	}
	l.enc = frame
	putFrameHeader(frame[:frameHeaderLen], frameHeader{
		kind:   frameRequest,
		method: m,
		stream: l.calls,
		length: uint32(len(frame) - frameHeaderLen),
	})
	l.bytesWritten += uint64(len(frame))
	if l.fault != nil {
		if err := l.fault(FrameRequest, m); err != nil {
			return err // request lost before the service saw it
		}
	}

	h, err := parseFrameHeader(frame[:frameHeaderLen])
	if err != nil {
		return err
	}
	l.sess.payload = frame[frameHeaderLen:]
	rep, kind := l.fs.handleCall(&l.sess, h, frameStart(l.rep))
	l.rep = rep
	putFrameHeader(rep[:frameHeaderLen], frameHeader{
		kind:   kind,
		method: m,
		stream: h.stream,
		length: uint32(len(rep) - frameHeaderLen),
	})
	l.bytesRead += uint64(len(rep))
	if l.fault != nil {
		if err := l.fault(FrameReply, m); err != nil {
			return err // reply lost after the service applied the call
		}
	}

	if kind == frameError {
		return RemoteError(string(rep[frameHeaderLen:]))
	}
	return readCallReply(m, rep[frameHeaderLen:], reply)
}
