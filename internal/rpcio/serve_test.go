package rpcio

import (
	"net"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/stage"
)

// TestStopClosesInFlightConnections: stop() must tear down connections
// that are sitting idle in their frame loop, not just the listener — and
// return only after every serving goroutine has drained. A hang here
// fails the test by timeout.
func TestStopClosesInFlightConnections(t *testing.T) {
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clock.NewSim(epoch))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := ServeStage(l, stg)
	h, err := DialStage(l.Addr().String(), WithBackoff(Backoff{Attempts: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := ping(h); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stop() hung with an in-flight connection open")
	}
	if _, err := ping(h); err == nil {
		t.Error("call succeeded after the server stopped")
	}
}

// TestMaxConnsBoundsConcurrentClients serves with a single connection
// slot. A second client can complete the TCP handshake (kernel backlog)
// but its calls go unanswered until the first client releases the slot.
// The second client gets a private frame dialer: the default pool would
// share the first client's multiplexed connection (the mux's whole
// point), and this test needs two real sockets.
func TestMaxConnsBoundsConcurrentClients(t *testing.T) {
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clock.NewSim(epoch))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFrameServer()
	fs.Add(NewStageService(stg))
	stop := serveBounded(l, fs.serveFrameConn, 1)
	defer stop()

	a, err := DialStage(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ping(a); err != nil {
		t.Fatal(err)
	}

	b, err := DialStage(l.Addr().String(),
		WithCallTimeout(200*time.Millisecond),
		WithBackoff(Backoff{Attempts: 1}),
		func(c *dialConfig) { c.dialer = &frameDialer{} })
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := ping(b); err == nil {
		t.Fatal("second client served while the only slot was held")
	}

	// Releasing the slot lets the accept loop reach the queued client.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := ping(b); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("second client never served after the slot freed up")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStopRefusesLateConnections: a connection that wins the Accept race
// against stop() must be refused, not silently served by a dying server.
func TestStopRefusesLateConnections(t *testing.T) {
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clock.NewSim(epoch))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := ServeStage(l, stg)
	stop()
	if _, err := DialStage(l.Addr().String(), WithBackoff(Backoff{Attempts: 1}), WithDialTimeout(200*time.Millisecond)); err == nil {
		t.Error("dial succeeded against a stopped server")
	}
}
