// Steady-state tests for the TCP frame transport: what a successful
// call costs (allocations, live timers), how the server coalesces
// pipelined replies, and how a failing call walks its backoff schedule.
package rpcio

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/policy"
	"padll/internal/stage"
)

// steadyTCPStage serves one stage with four rules behind ServeMux,
// dials it with WithMuxStage, and warms the handle past its first (full)
// collect.
func steadyTCPStage(tb testing.TB, opts ...DialOption) (*StageHandle, *stage.Stats) {
	tb.Helper()
	stages, handles, _ := muxFleet(tb, 1, nil, opts...)
	for _, id := range []string{"a", "b", "c", "d"} {
		stages[0].ApplyRule(policy.Rule{ID: id, Rate: 1000})
	}
	var st stage.Stats
	for i := 0; i < 2; i++ { // first contact is a full snapshot
		if err := handles[0].CollectDeltaInto(&st); err != nil {
			tb.Fatal(err)
		}
	}
	return handles[0], &st
}

// BenchmarkCollectDeltaSteadyStateTCP is BenchmarkCollectDeltaSteadyState
// over a real socket: one quiet stage behind ServeMux, so each op is one
// pipelinable Stage.Batch round trip through the client demux and the
// buffered server loop.
func BenchmarkCollectDeltaSteadyStateTCP(b *testing.B) {
	h, st := steadyTCPStage(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.CollectDeltaInto(st); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSteadyStateTCPCollectAllocatesNothing: a successful call draws no
// backoff PRNG, re-arms its pooled deadline timer, and reuses every
// buffer on both sides of the socket.
func TestSteadyStateTCPCollectAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	h, st := steadyTCPStage(t)
	allocs := testing.AllocsPerRun(200, func() {
		if err := h.CollectDeltaInto(st); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state TCP CollectDeltaInto: %.2f allocs/op, want 0", allocs)
	}
}

// TestSuccessfulCallsLeaveNoPendingTimers: each call's deadline is
// stopped once its reply lands, so finished calls park nothing on the
// handle's clock.
func TestSuccessfulCallsLeaveNoPendingTimers(t *testing.T) {
	sim := clock.NewSim(epoch)
	h, st := steadyTCPStage(t, WithHandleClock(sim))
	for i := 0; i < 50; i++ {
		if err := h.CollectDeltaInto(st); err != nil {
			t.Fatal(err)
		}
		if _, err := ping(h); err != nil {
			t.Fatal(err)
		}
	}
	if n := sim.PendingWaiters(); n != 0 {
		t.Errorf("%d timers still parked on the clock after 100 successful calls, want 0", n)
	}
}

// writeCountingListener counts Write calls on accepted connections: the
// server's reply writes.
type writeCountingListener struct {
	net.Listener
	mu     sync.Mutex
	writes int
}

func (l *writeCountingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &writeCountingConn{Conn: c, l: l}, nil
}

func (l *writeCountingListener) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writes
}

type writeCountingConn struct {
	net.Conn
	l *writeCountingListener
}

func (c *writeCountingConn) Write(p []byte) (int, error) {
	c.l.mu.Lock()
	c.l.writes++
	c.l.mu.Unlock()
	return c.Conn.Write(p)
}

// TestPipelinedRepliesCoalesceOnTheRightStreams sends a burst of health
// probes for several stages in one client write, so the server finds
// them all buffered and coalesces the replies. Every reply must come
// back whole, in request order, on its own stream and channel, answered
// by the stage that channel names.
func TestPipelinedRepliesCoalesceOnTheRightStreams(t *testing.T) {
	const stages, perStage = 4, 32
	var wl *writeCountingListener
	_, _, l := muxFleet(t, stages, func(l net.Listener) net.Listener {
		wl = &writeCountingListener{Listener: l}
		return wl
	})
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	br := bufio.NewReader(conn)

	readFrame := func() (frameHeader, []byte) {
		t.Helper()
		var hdr [frameHeaderLen]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			t.Fatal(err)
		}
		h, err := parseFrameHeader(hdr[:])
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, h.length)
		if _, err := io.ReadFull(br, payload); err != nil {
			t.Fatal(err)
		}
		return h, payload
	}
	request := func(buf []byte, m Method, stream uint64, channel uint32, payload []byte) []byte {
		start := len(buf)
		buf = append(appendFrameGap(buf), payload...)
		putFrameHeader(buf[start:start+frameHeaderLen], frameHeader{
			kind: frameRequest, method: m, stream: stream, channel: channel,
			length: uint32(len(buf) - start - frameHeaderLen),
		})
		return buf
	}

	// Attach every stage in one burst too.
	var burst []byte
	for i := 0; i < stages; i++ {
		burst = request(burst, methodAttach, uint64(i+1), 0, []byte(fmt.Sprintf("m%d", i)))
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	channels := make([]uint32, stages)
	for i := range channels {
		h, payload := readFrame()
		if h.kind != frameReply || h.stream != uint64(i+1) {
			t.Fatalf("attach reply %d: kind %d stream %d", i, h.kind, h.stream)
		}
		r := wireReader{buf: payload}
		channels[i] = uint32(r.uvarint())
		if err := r.done(); err != nil {
			t.Fatal(err)
		}
	}

	writesBefore := wl.count()
	burst = burst[:0]
	for k := 0; k < stages*perStage; k++ {
		i := k % stages
		args, err := appendCallArgs(nil, MethodHealth, &HealthProbe{Seq: uint64(k)})
		if err != nil {
			t.Fatal(err)
		}
		burst = request(burst, MethodHealth, uint64(1000+k), channels[i], args)
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < stages*perStage; k++ {
		i := k % stages
		h, payload := readFrame()
		if h.kind != frameReply || h.stream != uint64(1000+k) || h.channel != channels[i] {
			t.Fatalf("reply %d: kind %d stream %d channel %d, want stream %d channel %d",
				k, h.kind, h.stream, h.channel, 1000+k, channels[i])
		}
		var hl StageHealth
		if err := readCallReply(MethodHealth, payload, &hl); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("m%d", i); hl.Info.StageID != want || hl.Seq != uint64(k) {
			t.Fatalf("reply %d answered by %q seq %d, want %q seq %d", k, hl.Info.StageID, hl.Seq, want, k)
		}
	}
	if writes := wl.count() - writesBefore; writes >= stages*perStage {
		t.Errorf("server used %d writes for %d pipelined replies: nothing was coalesced", writes, stages*perStage)
	}
}

// TestJitteredRetrySleepsExactlyDelays: a handle retrying against a dead
// peer sleeps exactly its schedule's Delays() on the handle's clock.
// The retrier seeds its PRNG lazily, on the first jittered delay; the
// wanted values are the schedule an eagerly seeded generator drew, so
// this also pins that the lazy seeding left every jittered delay
// byte-identical.
func TestJitteredRetrySleepsExactlyDelays(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond, Factor: 2, Jitter: 0.5, Attempts: 6, Seed: 7}
	want := []time.Duration{14594460, 22315071, 44827751, 116462486, 134911777}
	if got := b.Delays(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Delays() = %v, want %v", got, want)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	_ = l.Close()
	sim := clock.NewSim(epoch)
	cfg := defaultDialConfig()
	cfg.clk, cfg.backoff, cfg.dialer = sim, b, &frameDialer{}
	h := NewStageHandle(newFrameTransport(dead, cfg))
	defer func() { _ = h.Close() }()

	done := make(chan error, 1)
	go func() {
		_, err := ping(h)
		done <- err
	}()
	var slept []time.Duration
	for {
		deadline := time.Now().Add(10 * time.Second)
		for sim.PendingWaiters() == 0 {
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("ping against a dead peer succeeded")
				}
				if fmt.Sprint(slept) != fmt.Sprint(want) {
					t.Fatalf("slept %v, want Delays() %v", slept, want)
				}
				return
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("retry loop stalled after sleeping %v", slept)
			}
			time.Sleep(time.Millisecond)
		}
		next, _ := sim.NextDeadline()
		d := next.Sub(sim.Now())
		slept = append(slept, d)
		sim.Advance(d)
	}
}
