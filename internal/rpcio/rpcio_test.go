package rpcio

import (
	"net"
	"sync"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/stage"
)

var epoch = time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)

// servedStage spins up a stage with its RPC service on loopback.
func servedStage(t *testing.T) (*stage.Stage, *StageHandle) {
	t.Helper()
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1", Hostname: "n1", PID: 7, User: "u"}, clock.NewSim(epoch))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := ServeStage(l, stg)
	t.Cleanup(stop)
	h, err := DialStage(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return stg, h
}

// ping probes a handle's stage with a health check and returns its
// identity.
func ping(h *StageHandle) (stage.Info, error) {
	hl, err := h.Health(0)
	return hl.Info, err
}

// serveRegistrar serves a registrar on a fresh frame listener and
// returns its address.
func serveRegistrar(t *testing.T, onRegister func(Registration) error, onDeregister func(string)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFrameServer()
	fs.AddRegistrar(onRegister, onDeregister)
	t.Cleanup(ServeMux(l, fs))
	return l.Addr().String()
}

func TestPingRoundTrip(t *testing.T) {
	_, h := servedStage(t)
	info, err := ping(h)
	if err != nil {
		t.Fatal(err)
	}
	if info.StageID != "s1" || info.JobID != "j1" || info.PID != 7 {
		t.Errorf("ping info = %+v", info)
	}
}

func TestApplyRuleOverRPC(t *testing.T) {
	stg, h := servedStage(t)
	rule := policy.Rule{
		ID:    "open-cap",
		Match: policy.Matcher{Ops: []posix.Op{posix.OpOpen}, JobID: "j1"},
		Rate:  5000,
		Burst: 100,
	}
	if err := h.ApplyRule(rule); err != nil {
		t.Fatal(err)
	}
	rules := stg.Rules()
	if len(rules) != 1 || rules[0].ID != "open-cap" || rules[0].Rate != 5000 {
		t.Errorf("installed rules = %+v", rules)
	}
	if len(rules[0].Match.Ops) != 1 || rules[0].Match.Ops[0] != posix.OpOpen {
		t.Errorf("matcher lost over the wire: %+v", rules[0].Match)
	}
}

func TestSetRateOverRPC(t *testing.T) {
	stg, h := servedStage(t)
	if err := h.ApplyRule(policy.Rule{ID: "q", Rate: 100}); err != nil {
		t.Fatal(err)
	}
	found, err := h.SetRate("q", 250)
	if err != nil || !found {
		t.Fatalf("SetRate = %v, %v", found, err)
	}
	if got := stg.Rules()[0].Rate; got != 250 {
		t.Errorf("rate = %v, want 250", got)
	}
	found, err = h.SetRate("ghost", 1)
	if err != nil || found {
		t.Errorf("SetRate(ghost) = %v, %v; want false, nil", found, err)
	}
}

func TestRemoveRuleOverRPC(t *testing.T) {
	_, h := servedStage(t)
	if err := h.ApplyRule(policy.Rule{ID: "q", Rate: 100}); err != nil {
		t.Fatal(err)
	}
	removed, err := h.RemoveRule("q")
	if err != nil || !removed {
		t.Fatalf("RemoveRule = %v, %v", removed, err)
	}
	removed, err = h.RemoveRule("q")
	if err != nil || removed {
		t.Errorf("second RemoveRule = %v, %v; want false, nil", removed, err)
	}
}

func TestCollectOverRPC(t *testing.T) {
	stg, h := servedStage(t)
	if err := h.ApplyRule(policy.Rule{ID: "meta", Match: policy.Matcher{Classes: []posix.Class{posix.ClassMetadata}}, Rate: policy.Unlimited}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := stg.Enforce(&posix.Request{Op: posix.OpOpen, Path: "/f"}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := h.CollectDelta()
	if err != nil {
		t.Fatal(err)
	}
	if st.Info.StageID != "s1" {
		t.Errorf("stats info = %+v", st.Info)
	}
	if len(st.Queues) != 1 || st.Queues[0].Total != 25 {
		t.Errorf("queues = %+v", st.Queues)
	}
}

func TestSetModeOverRPC(t *testing.T) {
	stg, h := servedStage(t)
	if err := h.SetMode(stage.Passthrough); err != nil {
		t.Fatal(err)
	}
	if stg.Mode() != stage.Passthrough {
		t.Error("mode not switched")
	}
}

func TestRegistrarFlow(t *testing.T) {
	var mu sync.Mutex
	var regs []Registration
	var deregs []string
	addr := serveRegistrar(t,
		func(r Registration) error {
			mu.Lock()
			regs = append(regs, r)
			mu.Unlock()
			return nil
		},
		func(id string) {
			mu.Lock()
			deregs = append(deregs, id)
			mu.Unlock()
		})

	info := stage.Info{StageID: "sX", JobID: "jY", Hostname: "nodeZ", PID: 11, User: "bob"}
	if err := RegisterWithController(addr, info, "127.0.0.1:9999"); err != nil {
		t.Fatal(err)
	}
	if err := DeregisterFromController(addr, "sX"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(regs) != 1 || regs[0].Info != info || regs[0].Addr != "127.0.0.1:9999" {
		t.Errorf("registrations = %+v", regs)
	}
	if len(deregs) != 1 || deregs[0] != "sX" {
		t.Errorf("deregistrations = %v", deregs)
	}
}

func TestDialStageFailure(t *testing.T) {
	if _, err := DialStage("127.0.0.1:1"); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestClosedHandleErrors(t *testing.T) {
	_, h := servedStage(t)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if _, err := ping(h); err == nil {
		t.Error("Ping on closed handle succeeded")
	}
}

func TestEndToEndEnforcementViaRPC(t *testing.T) {
	// Full integration: controller installs a rule over the wire; the
	// stage then throttles a live request stream.
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clock.NewReal())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := ServeStage(l, stg)
	defer stop()
	h, err := DialStage(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	if err := h.ApplyRule(policy.Rule{ID: "cap", Rate: 1000, Burst: 10}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < 200; i++ {
		if err := stg.Enforce(&posix.Request{Op: posix.OpOpen, Path: "/f"}); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Errorf("200 ops at 1000/s burst 10 finished in %v; RPC-installed rule not enforced", elapsed)
	}
	st, err := h.CollectDelta()
	if err != nil {
		t.Fatal(err)
	}
	if st.Queues[0].Total != 200 {
		t.Errorf("total = %d, want 200", st.Queues[0].Total)
	}
}

func TestWaitPercentilesSurviveWire(t *testing.T) {
	// QueueStats gained WaitP50/P95/P99; make sure the collect reply
	// carries them rather than silently zeroing the new fields.
	clk := clock.NewSim(epoch)
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clk)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := ServeStage(l, stg)
	defer stop()
	h, err := DialStage(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	stg.ApplyRule(policy.Rule{ID: "cap", Rate: 10, Burst: 1})
	req := &posix.Request{Op: posix.OpOpen, Path: "/f", JobID: "j1"}
	if err := stg.Enforce(req); err != nil { // drains the 1-token burst
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- stg.Enforce(req) }()
	deadline := time.Now().Add(5 * time.Second)
	for clk.PendingWaiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never parked")
		}
		time.Sleep(time.Millisecond)
	}
	clk.Advance(200 * time.Millisecond)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	st, err := h.CollectDelta()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Queues) != 1 {
		t.Fatalf("queues = %+v", st.Queues)
	}
	q := st.Queues[0]
	if q.WaitP99 <= 0 {
		t.Errorf("WaitP99 = %v, want > 0: percentiles lost over the wire (%+v)", q.WaitP99, q)
	}
	if q.WaitP50 > q.WaitP95 || q.WaitP95 > q.WaitP99 {
		t.Errorf("percentiles not monotone over the wire: %+v", q)
	}
}

func TestRuleActionSurvivesWire(t *testing.T) {
	stg, h := servedStage(t)
	rule := policy.Rule{ID: "police", Rate: 100, Burst: 5, Action: policy.ActionDrop}
	if err := h.ApplyRule(rule); err != nil {
		t.Fatal(err)
	}
	got := stg.Rules()[0]
	if got.Action != policy.ActionDrop {
		t.Errorf("action lost over the wire: %+v", got)
	}
}
