// Server half of the multiplexed frame transport.
//
// A FrameServer hosts any number of services behind one listener —
// stage services, aggregator services, and the control plane's
// registrar: clients address a service by channel number, resolved
// once per connection per stage via the attach handshake (methodAttach
// with the stage ID as payload). Each accepted connection is served by
// one goroutine that processes frames strictly in arrival order —
// requests pipeline (a client may have many in flight; none waits for a
// network round trip behind another) but replies never reorder. Input
// is buffered and replies are coalesced into whole frames per Write
// (see serveFrameConn), and the per-connection decode buffers and reply
// structs are reused across frames, so a steady-state collect allocates
// nothing on the server side either.
package rpcio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// frameTarget is one mux channel's service: exactly one of a stage
// service, an aggregator service, or a registrar.
type frameTarget struct {
	stage *StageService
	agg   *AggService
	reg   *registrar
}

// registrar is the control plane's registration endpoint: stages
// announce themselves at job start and their departure at shutdown,
// and probe it as the controller liveness check behind degraded mode.
type registrar struct {
	onRegister   func(Registration) error
	onDeregister func(stageID string)
}

// FrameServer routes frames to the services multiplexed behind one
// listener — stage services and aggregator services share the channel
// space and the attach handshake. Channel 0 is the first service added
// — the implicit default for clients that never attach (a
// single-service endpoint).
type FrameServer struct {
	mu     sync.Mutex
	byName map[string]uint32
	// targets is published copy-on-write: registration appends to a
	// fresh slice under mu, while lookup — on the path of every frame —
	// reads the current snapshot with one atomic load and no lock.
	targets atomic.Pointer[[]frameTarget]
}

// NewFrameServer returns an empty mux.
func NewFrameServer() *FrameServer {
	return &FrameServer{byName: make(map[string]uint32)}
}

// Add registers a service under its stage's ID and returns the channel
// clients resolve via attach. The first service added also serves
// channel 0 (the no-attach default).
func (fs *FrameServer) Add(svc *StageService) uint32 {
	return fs.add(svc.stg.Info().StageID, frameTarget{stage: svc})
}

// AddAgg registers an aggregator service under its aggregator ID; the
// attach handshake resolves it exactly as a stage ID.
func (fs *FrameServer) AddAgg(svc *AggService) uint32 {
	return fs.add(svc.id, frameTarget{agg: svc})
}

// AddRegistrar registers the control plane's registration endpoint,
// invoking onRegister for each arriving stage and onDeregister (may be
// nil) on departures. Registrar clients never attach: they address
// channel 0, so the registrar must be the first service added.
func (fs *FrameServer) AddRegistrar(onRegister func(Registration) error, onDeregister func(stageID string)) uint32 {
	return fs.add("", frameTarget{reg: &registrar{onRegister: onRegister, onDeregister: onDeregister}})
}

func (fs *FrameServer) add(name string, t frameTarget) uint32 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var cur []frameTarget
	if p := fs.targets.Load(); p != nil {
		cur = *p
	}
	ch := uint32(len(cur))
	next := make([]frameTarget, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = t
	fs.targets.Store(&next)
	if name != "" {
		fs.byName[name] = ch
	}
	return ch
}

// lookup resolves a channel to its service.
func (fs *FrameServer) lookup(ch uint32) (frameTarget, bool) {
	p := fs.targets.Load()
	if p == nil || int(ch) >= len(*p) {
		return frameTarget{}, false
	}
	return (*p)[ch], true
}

// attach resolves a stage or aggregator ID to its channel. The empty ID
// names the default service.
func (fs *FrameServer) attach(stageID string) (uint32, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if stageID == "" {
		if p := fs.targets.Load(); p == nil || len(*p) == 0 {
			return 0, false
		}
		return 0, true
	}
	ch, ok := fs.byName[stageID]
	return ch, ok
}

// frameSession is one accepted connection's reusable server state:
// decode targets and reply values survive across frames, so the
// steady-state dispatch path allocates nothing.
type frameSession struct {
	hdr     [frameHeaderLen]byte
	payload []byte
	// out holds encoded replies not yet written: whole frames, in
	// request order.
	out []byte

	probeArgs     HealthProbe
	batchArgs     BatchArgs
	aggAttachArgs AggAttachArgs
	aggRoundArgs  AggRoundArgs
	regArgs       Registration

	healthReply  StageHealth
	batchReply   BatchReply
	aggInfoReply AggInfo
	aggRndReply  AggRoundReply
}

const (
	// frameReadBuf sizes a connection's input buffer: room for a few
	// hundred pipelined collect requests per read.
	frameReadBuf = 16 << 10
	// frameFlushCap bounds the replies a connection holds back while
	// more requests are already buffered.
	frameFlushCap = 64 << 10
)

// serveFrameConn runs one connection's frame loop until the connection
// dies. Frames are handled strictly in order. Replies are coalesced:
// each is appended to the session's output buffer, which goes out in
// one Write whenever the buffered input holds no further complete
// request (the next read may block, so nothing may wait behind it) or
// the buffer passes frameFlushCap. A pipelined burst of requests thus
// costs one read and one write per buffer-full, not two reads and a
// write per frame, and every Write still carries whole frames, so
// write-granular fault injection drops or duplicates whole frames.
func (fs *FrameServer) serveFrameConn(conn net.Conn) {
	var s frameSession
	br := bufio.NewReaderSize(conn, frameReadBuf)
	for {
		if len(s.out) > 0 && (len(s.out) >= frameFlushCap || !requestBuffered(br)) {
			if _, err := conn.Write(s.out); err != nil {
				return
			}
			s.out = s.out[:0]
		}
		if _, err := io.ReadFull(br, s.hdr[:]); err != nil {
			return // peer hung up (or the listener stopped and closed us)
		}
		h, err := parseFrameHeader(s.hdr[:])
		if err != nil {
			return // unusable framing: kill the connection
		}
		if cap(s.payload) < int(h.length) {
			s.payload = make([]byte, h.length)
		}
		s.payload = s.payload[:h.length]
		if _, err := io.ReadFull(br, s.payload); err != nil {
			return
		}
		if h.kind != frameRequest {
			return // a client must only send requests
		}
		start := len(s.out)
		reply := appendFrameGap(s.out)
		kind := frameReply
		if h.method == methodAttach {
			reply, kind = fs.handleAttach(s.payload, reply)
		} else {
			reply, kind = fs.handleCall(&s, h, reply)
		}
		s.out = reply
		putFrameHeader(reply[start:start+frameHeaderLen], frameHeader{
			kind:    kind,
			method:  h.method,
			stream:  h.stream,
			channel: h.channel,
			length:  uint32(len(reply) - start - frameHeaderLen),
		})
	}
}

// requestBuffered reports whether br already holds a whole frame, so
// the next request can be served without touching the socket. A
// malformed header counts as not buffered: the pending replies go out
// before the frame loop reads it and fails.
func requestBuffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < frameHeaderLen {
		return false
	}
	hdr, err := br.Peek(frameHeaderLen)
	if err != nil {
		return false
	}
	h, err := parseFrameHeader(hdr)
	return err == nil && n >= frameHeaderLen+int(h.length)
}

// handleAttach resolves a stage ID to its channel.
func (fs *FrameServer) handleAttach(payload, reply []byte) ([]byte, uint8) {
	ch, ok := fs.attach(string(payload))
	if !ok {
		return appendErrorPayload(reply, fmt.Sprintf("rpcio: no stage %q on this endpoint", payload)), frameError
	}
	return appendUvarintPayload(reply, uint64(ch)), frameReply
}

func appendErrorPayload(reply []byte, msg string) []byte {
	return append(reply, msg...)
}

func appendUvarintPayload(reply []byte, v uint64) []byte {
	return binary.AppendUvarint(reply, v)
}

// handleCall decodes, dispatches, and encodes one service method,
// appending the reply payload to reply (whose tail is the reply's
// header gap).
func (fs *FrameServer) handleCall(s *frameSession, h frameHeader, reply []byte) ([]byte, uint8) {
	base := len(reply)
	tgt, ok := fs.lookup(h.channel)
	if !ok {
		return appendErrorPayload(reply, fmt.Sprintf("rpcio: no service on channel %d", h.channel)), frameError
	}
	var (
		out []byte
		err error
	)
	switch {
	case tgt.stage != nil:
		out, err = handleStageCall(tgt.stage, s, h, reply)
	case tgt.agg != nil:
		out, err = handleAggCall(tgt.agg, s, h, reply)
	default:
		out, err = handleRegistrarCall(tgt.reg, s, h, reply)
	}
	if err != nil {
		return appendErrorPayload(reply[:base], err.Error()), frameError
	}
	return out, frameReply
}

func handleStageCall(svc *StageService, s *frameSession, h frameHeader, reply []byte) ([]byte, error) {
	switch h.method {
	case MethodHealth:
		if err := readCallArgs(h.method, s.payload, &s.probeArgs); err != nil {
			return nil, err
		}
		if err := svc.Health(s.probeArgs, &s.healthReply); err != nil {
			return nil, err
		}
		return appendStageHealth(reply, &s.healthReply), nil
	case MethodBatch:
		if err := readCallArgs(h.method, s.payload, &s.batchArgs); err != nil {
			return nil, err
		}
		if err := svc.Batch(s.batchArgs, &s.batchReply); err != nil {
			return nil, err
		}
		return appendBatchReply(reply, &s.batchReply), nil
	case MethodAggAttach, MethodAggRound:
		return nil, fmt.Errorf("rpcio: channel %d hosts a stage, not an aggregator", h.channel)
	}
	return nil, fmt.Errorf("rpcio: stage channel %d: unknown %v", h.channel, h.method)
}

func handleAggCall(svc *AggService, s *frameSession, h frameHeader, reply []byte) ([]byte, error) {
	switch h.method {
	case MethodAggAttach:
		if err := readCallArgs(h.method, s.payload, &s.aggAttachArgs); err != nil {
			return nil, err
		}
		if err := svc.Attach(s.aggAttachArgs, &s.aggInfoReply); err != nil {
			return nil, err
		}
		return appendAggInfo(reply, &s.aggInfoReply), nil
	case MethodAggRound:
		if err := readCallArgs(h.method, s.payload, &s.aggRoundArgs); err != nil {
			return nil, err
		}
		if err := svc.Round(s.aggRoundArgs, &s.aggRndReply); err != nil {
			return nil, err
		}
		return appendAggRoundReply(reply, &s.aggRndReply), nil
	case MethodHealth, MethodBatch:
		return nil, fmt.Errorf("rpcio: channel %d hosts an aggregator, not a stage", h.channel)
	}
	return nil, fmt.Errorf("rpcio: aggregator channel %d: unknown %v", h.channel, h.method)
}

func handleRegistrarCall(reg *registrar, s *frameSession, h frameHeader, reply []byte) ([]byte, error) {
	switch h.method {
	case MethodRegister:
		if err := readCallArgs(h.method, s.payload, &s.regArgs); err != nil {
			return nil, err
		}
		return reply, reg.onRegister(s.regArgs)
	case MethodDeregister:
		if reg.onDeregister != nil {
			reg.onDeregister(string(s.payload))
		}
		return reply, nil
	case MethodRegistrarPing:
		if err := readCallArgs(h.method, s.payload, &s.probeArgs); err != nil {
			return nil, err
		}
		return appendHealthProbe(reply, &s.probeArgs), nil
	}
	return nil, fmt.Errorf("rpcio: registrar channel %d: unknown %v", h.channel, h.method)
}
