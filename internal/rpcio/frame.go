// Client half of the multiplexed frame transport.
//
// One TCP connection per endpoint carries any number of logical stage
// conversations: every request frame names a stream (a per-connection
// nonce routing the reply back to its waiter) and a channel (selecting
// one of the services multiplexed behind the listener). A single demux
// goroutine per connection reads reply frames and hands each payload to
// the waiting call; replies for unknown streams — duplicates injected
// by a flaky wire, or stragglers from a timed-out call — are consumed
// and dropped, never misdelivered.
//
// Failure handling: every call runs under the
// transport's deadline on its injected clock, a timeout or I/O error
// kills the whole connection (completing every pending call with the
// error), and the next call redials under seeded backoff. RemoteError
// — the peer answered with an application error — is returned without
// retry. Every Write carries whole frames (server replies are
// coalesced), so fault injectors operating at write granularity
// (FlakyConn) drop or duplicate whole frames, never fragments.
package rpcio

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"padll/internal/clock"
)

// frameCall is one in-flight request's rendezvous: the reader goroutine
// delivers the reply payload into buf and signals ch. Completion is
// exactly-once (whoever removes the call from the pending map completes
// it), so calls and their buffers are pooled and reused.
type frameCall struct {
	ch   chan struct{} // buffered(1); one signal per completion
	kind uint8
	buf  []byte // reply payload (reused)
	wbuf []byte // request frame assembly (reused)
	err  error
	// deadline is the call's timeout timer, created on the call's first
	// use and re-armed per round trip. It is stopped as soon as the
	// reply lands, so a pooled call holds no live timer between uses.
	deadline clock.Timer
}

// armDeadline starts the call's timeout on clk.
func (c *frameCall) armDeadline(clk clock.Clock, d time.Duration) clock.Timer {
	if c.deadline == nil {
		c.deadline = clk.NewTimer(d)
	} else {
		c.deadline.Reset(d)
	}
	return c.deadline
}

// frameConn is one multiplexed connection shared by every transport
// dialing the same endpoint. It is owned by a frameDialer, which
// refcounts it; the last transport to close releases the socket.
type frameConn struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	d    *frameDialer

	// wmu serializes frame writes; each frame is one conn.Write.
	wmu sync.Mutex

	mu         sync.Mutex
	nextStream uint64
	pending    map[uint64]*frameCall
	channels   map[string]uint32 // attach cache: stage ID → channel
	dead       bool
	err        error

	// refs is guarded by the dialer's mutex (see frameDialer).
	refs int

	readerDone chan struct{}
}

// register assigns a fresh stream ID and parks the call in the pending
// map. It fails if the connection already died.
func (fc *frameConn) register(call *frameCall) (uint64, error) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.dead {
		return 0, fc.err
	}
	fc.nextStream++
	s := fc.nextStream
	fc.pending[s] = call
	return s, nil
}

// forget removes a call that never made it onto the wire.
func (fc *frameConn) forget(stream uint64) {
	fc.mu.Lock()
	delete(fc.pending, stream)
	fc.mu.Unlock()
}

// send writes one whole frame with a single Write.
func (fc *frameConn) send(frame []byte) error {
	fc.wmu.Lock()
	_, err := fc.conn.Write(frame)
	fc.wmu.Unlock()
	return err
}

// kill tears the connection down once: marks it dead, completes every
// pending call with err, closes the socket, and removes the connection
// from its dialer so the next call dials fresh.
func (fc *frameConn) kill(err error) {
	fc.mu.Lock()
	if fc.dead {
		fc.mu.Unlock()
		return
	}
	fc.dead = true
	fc.err = err
	pending := fc.pending
	fc.pending = make(map[uint64]*frameCall)
	fc.mu.Unlock()
	for _, call := range pending {
		call.err = err
		call.ch <- struct{}{}
	}
	// The connection is being discarded; its close error is subsumed by
	// the error that killed it.
	_ = fc.conn.Close()
	fc.d.remove(fc)
}

func (fc *frameConn) isDead() bool {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.dead
}

// readLoop is the demux goroutine: it routes each reply frame's payload
// to its stream's waiter and exits (closing readerDone) when the
// connection dies.
func (fc *frameConn) readLoop() {
	var hdr [frameHeaderLen]byte
	var discard []byte
	for {
		if _, err := io.ReadFull(fc.br, hdr[:]); err != nil {
			fc.kill(fmt.Errorf("rpcio: %s: read frame header: %w", fc.addr, err))
			return
		}
		h, err := parseFrameHeader(hdr[:])
		if err != nil {
			fc.kill(err)
			return
		}
		fc.mu.Lock()
		call := fc.pending[h.stream]
		if call != nil {
			delete(fc.pending, h.stream)
		}
		fc.mu.Unlock()
		if call == nil {
			// Duplicate or orphaned reply: consume the payload so framing
			// stays aligned, then drop it.
			if cap(discard) < int(h.length) {
				discard = make([]byte, h.length)
			}
			if _, err := io.ReadFull(fc.br, discard[:h.length]); err != nil {
				fc.kill(fmt.Errorf("rpcio: %s: read orphan payload: %w", fc.addr, err))
				return
			}
			continue
		}
		if cap(call.buf) < int(h.length) {
			call.buf = make([]byte, h.length)
		}
		call.buf = call.buf[:h.length]
		if _, err := io.ReadFull(fc.br, call.buf); err != nil {
			err = fmt.Errorf("rpcio: %s: read frame payload: %w", fc.addr, err)
			call.err = err
			call.ch <- struct{}{}
			fc.kill(err)
			return
		}
		call.kind = h.kind
		call.err = nil
		call.ch <- struct{}{}
	}
}

// channelFor resolves the wire channel for a stage on this connection,
// performing the attach handshake on first use. An empty stage ID means
// the endpoint's default (sole) service on channel 0.
func (fc *frameConn) channelFor(t *frameTransport, stageID string) (uint32, error) {
	if stageID == "" {
		return 0, nil
	}
	fc.mu.Lock()
	ch, ok := fc.channels[stageID]
	fc.mu.Unlock()
	if ok {
		return ch, nil
	}
	call := t.getCall()
	defer t.putCall(call)
	call.wbuf = append(frameStart(call.wbuf), stageID...)
	if err := t.roundTrip(fc, call, methodAttach, 0); err != nil {
		return 0, err
	}
	if call.kind == frameError {
		return 0, RemoteError(string(call.buf))
	}
	r := wireReader{buf: call.buf}
	ch = uint32(r.uvarint())
	if err := r.done(); err != nil {
		return 0, fmt.Errorf("rpcio: %s: attach %q: %w", fc.addr, stageID, err)
	}
	fc.mu.Lock()
	fc.channels[stageID] = ch
	fc.mu.Unlock()
	return ch, nil
}

// frameDialer pools one frameConn per endpoint address: however many
// stages a controller drives behind one aggregator endpoint, they share
// a single TCP connection. Connections are refcounted by the transports
// using them; the last Close releases the socket.
type frameDialer struct {
	mu    sync.Mutex
	conns map[string]*frameConn
}

// defaultFrameDialer is the process-wide pool DialStage uses.
var defaultFrameDialer = &frameDialer{}

// acquire returns the live connection to addr, dialing one if needed,
// with the caller's reference counted.
func (d *frameDialer) acquire(addr string, dialTO time.Duration) (*frameConn, error) {
	d.mu.Lock()
	if fc := d.conns[addr]; fc != nil && !fc.isDead() {
		fc.refs++
		d.mu.Unlock()
		return fc, nil
	}
	d.mu.Unlock()

	conn, err := net.DialTimeout("tcp", addr, dialTO)
	if err != nil {
		return nil, fmt.Errorf("rpcio: dial %s: %w", addr, err)
	}
	fc := &frameConn{
		addr:       addr,
		conn:       conn,
		br:         bufio.NewReader(conn),
		d:          d,
		pending:    make(map[uint64]*frameCall),
		channels:   make(map[string]uint32),
		readerDone: make(chan struct{}),
	}

	d.mu.Lock()
	if existing := d.conns[addr]; existing != nil && !existing.isDead() {
		// A concurrent dial won; use its connection.
		existing.refs++
		d.mu.Unlock()
		_ = conn.Close()
		return existing, nil
	}
	if d.conns == nil {
		d.conns = make(map[string]*frameConn)
	}
	d.conns[addr] = fc
	fc.refs = 1
	d.mu.Unlock()
	// The demux goroutine exits when the connection dies (kill closes the
	// socket, failing its blocking read); readerDone is the join point
	// release waits on.
	go func() {
		defer close(fc.readerDone)
		fc.readLoop()
	}()
	return fc, nil
}

// release drops one reference; the last one kills the connection.
func (d *frameDialer) release(fc *frameConn) {
	d.mu.Lock()
	fc.refs--
	last := fc.refs == 0
	d.mu.Unlock()
	if last {
		fc.kill(fmt.Errorf("rpcio: stage %s: connection closed", fc.addr))
		<-fc.readerDone
	}
}

// remove forgets a dead connection so the next acquire dials fresh.
func (d *frameDialer) remove(fc *frameConn) {
	d.mu.Lock()
	if d.conns[fc.addr] == fc {
		delete(d.conns, fc.addr)
	}
	d.mu.Unlock()
}

// frameTransport implements Transport over a (shared) frameConn. Byte
// accounting is per transport — each call's frames are attributed to
// the transport that issued them — so a controller summing its
// connections' WireStats sees exact per-stage traffic even when many
// stages share one socket.
type frameTransport struct {
	addr    string
	stageID string
	d       *frameDialer
	clk     clock.Clock
	timeout time.Duration
	dialTO  time.Duration
	backoff Backoff

	calls        atomic.Uint64
	bytesRead    atomic.Uint64
	bytesWritten atomic.Uint64

	mu     sync.Mutex
	fc     *frameConn
	closed bool

	callPool sync.Pool
}

func newFrameTransport(addr string, cfg dialConfig) *frameTransport {
	d := cfg.dialer
	if d == nil {
		d = defaultFrameDialer
	}
	return &frameTransport{
		addr:    addr,
		stageID: cfg.stageID,
		d:       d,
		clk:     cfg.clk,
		timeout: cfg.timeout,
		dialTO:  cfg.dialTO,
		backoff: cfg.backoff,
	}
}

// Addr implements Transport.
func (t *frameTransport) Addr() string { return t.addr }

// WireStats implements Transport.
func (t *frameTransport) WireStats() WireStats {
	return WireStats{
		Calls:        t.calls.Load(),
		BytesRead:    t.bytesRead.Load(),
		BytesWritten: t.bytesWritten.Load(),
	}
}

func (t *frameTransport) getCall() *frameCall {
	if c, ok := t.callPool.Get().(*frameCall); ok {
		return c
	}
	return &frameCall{ch: make(chan struct{}, 1)}
}

func (t *frameTransport) putCall(c *frameCall) {
	c.err = nil
	t.callPool.Put(c)
}

// ensureConn returns the transport's live shared connection, acquiring
// a fresh one from the dialer when the previous died.
func (t *frameTransport) ensureConn() (*frameConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, fmt.Errorf("rpcio: stage %s: connection closed", t.addr)
	}
	if t.fc != nil && !t.fc.isDead() {
		fc := t.fc
		t.mu.Unlock()
		return fc, nil
	}
	old := t.fc
	t.fc = nil
	t.mu.Unlock()
	if old != nil {
		t.d.release(old)
	}

	fc, err := t.d.acquire(t.addr, t.dialTO)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	switch {
	case t.closed:
		t.mu.Unlock()
		t.d.release(fc)
		return nil, fmt.Errorf("rpcio: stage %s: connection closed", t.addr)
	case t.fc != nil && !t.fc.isDead():
		existing := t.fc
		t.mu.Unlock()
		t.d.release(fc)
		return existing, nil
	default:
		t.fc = fc
		t.mu.Unlock()
		return fc, nil
	}
}

// frameStart resets b to a frame assembly buffer: empty payload after a
// zeroed frameHeaderLen gap the sender patches before writing.
func frameStart(b []byte) []byte { return appendFrameGap(b[:0]) }

// appendFrameGap appends a zeroed frameHeaderLen gap to b, the start of
// one more frame in a buffer that may already hold others.
func appendFrameGap(b []byte) []byte {
	var zero [frameHeaderLen]byte
	return append(b, zero[:]...)
}

// roundTrip sends the frame assembled in call.wbuf (a frameHeaderLen
// gap followed by the encoded payload; see frameStart) and waits for
// the reply under the transport's deadline. The reply lands in
// call.buf — a distinct buffer from wbuf, so the demux goroutine never
// touches memory conn.Write may still be reading. On timeout the whole
// connection is killed — a late reply on a stream with no waiter would
// be discarded by the demux loop, but the connection's framing state
// can no longer be trusted to be timely.
func (t *frameTransport) roundTrip(fc *frameConn, call *frameCall, m Method, channel uint32) error {
	stream, err := fc.register(call)
	if err != nil {
		return err
	}
	frame := call.wbuf
	putFrameHeader(frame[:frameHeaderLen], frameHeader{
		kind:    frameRequest,
		method:  m,
		stream:  stream,
		channel: channel,
		length:  uint32(len(frame) - frameHeaderLen),
	})

	if err := fc.send(frame); err != nil {
		fc.forget(stream)
		err = fmt.Errorf("rpcio: %s: write frame: %w", t.addr, err)
		fc.kill(err)
		return err
	}
	t.bytesWritten.Add(uint64(len(frame)))

	if t.timeout > 0 {
		deadline := call.armDeadline(t.clk, t.timeout)
		select {
		case <-call.ch:
			deadline.Stop()
		case <-deadline.C():
			fc.kill(fmt.Errorf("rpcio: %s: %v deadline %v exceeded", t.addr, m, t.timeout))
			<-call.ch // kill (or the racing reader) completes the call
			if call.err == nil {
				break // the reply raced the deadline and won
			}
			return call.err
		}
	} else {
		<-call.ch
	}
	if call.err != nil {
		return call.err
	}
	t.bytesRead.Add(uint64(frameHeaderLen + len(call.buf)))
	return nil
}

// callOnce performs one encode → frame → decode attempt.
func (t *frameTransport) callOnce(fc *frameConn, m Method, args, reply any) error {
	t.calls.Add(1)
	channel, err := fc.channelFor(t, t.stageID)
	if err != nil {
		return err
	}
	call := t.getCall()
	defer t.putCall(call)
	frame, err := appendCallArgs(frameStart(call.wbuf), m, args)
	if err != nil {
		return err
	}
	call.wbuf = frame
	if err := t.roundTrip(fc, call, m, channel); err != nil {
		return err
	}
	switch call.kind {
	case frameError:
		return RemoteError(string(call.buf))
	case frameReply:
		return readCallReply(m, call.buf, reply)
	default:
		return fmt.Errorf("rpcio: %s: unexpected frame kind %d", t.addr, call.kind)
	}
}

// Call implements Transport with redial + retry:
// transport errors invalidate the connection and retry
// under seeded backoff; RemoteError (the peer answered "no") is
// returned as-is.
func (t *frameTransport) Call(m Method, args, reply any) error {
	r := newRetrier(t.backoff)
	for {
		fc, err := t.ensureConn()
		if err == nil {
			err = t.callOnce(fc, m, args, reply)
			if err == nil {
				return nil
			}
			if _, remote := err.(RemoteError); remote {
				// The wire worked; the stage itself refused. Retrying an
				// application error is wrong.
				return err
			}
			fc.kill(err)
		}
		if t.isClosed() {
			return err
		}
		d, ok := r.delay()
		if !ok {
			return err
		}
		t.clk.Sleep(d)
	}
}

func (t *frameTransport) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// Close implements Transport: it releases this transport's reference on
// the shared connection; the socket itself closes when the last sharer
// leaves.
func (t *frameTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	fc := t.fc
	t.fc = nil
	t.mu.Unlock()
	if fc != nil {
		t.d.release(fc)
	}
	return nil
}
