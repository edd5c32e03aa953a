package control

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/rpcio"
	"padll/internal/stage"
)

var epoch = time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)

func localStage(id, job string, clk clock.Clock) (*stage.Stage, *LocalConn) {
	stg := stage.New(stage.Info{StageID: id, JobID: job, Hostname: "n-" + id, User: "u"}, clk)
	return stg, &LocalConn{Stg: stg}
}

func TestRegisterAndJobGrouping(t *testing.T) {
	clk := clock.NewSim(epoch)
	c := New(clk)
	_, c1 := localStage("s1", "jobA", clk)
	_, c2 := localStage("s2", "jobA", clk) // distributed job: 2 stages
	_, c3 := localStage("s3", "jobB", clk)
	for _, conn := range []*LocalConn{c1, c2, c3} {
		if err := c.Register(conn); err != nil {
			t.Fatal(err)
		}
	}
	if jobs := c.Jobs(); len(jobs) != 2 || jobs[0] != "jobA" || jobs[1] != "jobB" {
		t.Errorf("Jobs = %v", jobs)
	}
	if stages := c.Stages(); len(stages) != 3 {
		t.Errorf("Stages = %v", stages)
	}
}

func TestReRegistrationReplacesConnection(t *testing.T) {
	// Dependability (§VI): a stage that restarts re-registers under the
	// same ID; the controller adopts the new connection and closes the
	// stale one.
	clk := clock.NewSim(epoch)
	c := New(clk)
	_, oldConn := localStage("s1", "jobA", clk)
	if err := c.Register(oldConn); err != nil {
		t.Fatal(err)
	}
	_, newConn := localStage("s1", "jobA", clk)
	if err := c.Register(newConn); err != nil {
		t.Fatalf("re-registration rejected: %v", err)
	}
	if got := len(c.Stages()); got != 1 {
		t.Errorf("stages = %d, want 1 after re-registration", got)
	}
}

func TestDeregister(t *testing.T) {
	clk := clock.NewSim(epoch)
	c := New(clk)
	_, conn := localStage("s1", "jobA", clk)
	if err := c.Register(conn); err != nil {
		t.Fatal(err)
	}
	if !c.Deregister("s1") {
		t.Error("Deregister returned false")
	}
	if c.Deregister("s1") {
		t.Error("double Deregister returned true")
	}
	if len(c.Jobs()) != 0 {
		t.Error("job still listed after deregistration")
	}
}

func TestApplyRuleToJobSplitsAcrossStages(t *testing.T) {
	clk := clock.NewSim(epoch)
	c := New(clk)
	s1, c1 := localStage("s1", "jobA", clk)
	s2, c2 := localStage("s2", "jobA", clk)
	if err := c.Register(c1); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(c2); err != nil {
		t.Fatal(err)
	}
	rule := policy.Rule{ID: "meta", Match: policy.Matcher{Classes: []posix.Class{posix.ClassMetadata}}, Rate: 1000}
	if err := c.ApplyRuleToJob("jobA", rule); err != nil {
		t.Fatal(err)
	}
	// Each of the two stages gets half the job's rate.
	for _, s := range []*stage.Stage{s1, s2} {
		rules := s.Rules()
		if len(rules) != 1 || rules[0].Rate != 500 {
			t.Errorf("stage rules = %+v, want rate 500", rules)
		}
	}
}

func TestApplyRuleToUnknownJobFails(t *testing.T) {
	c := New(clock.NewSim(epoch))
	if err := c.ApplyRuleToJob("ghost", policy.Rule{ID: "r", Rate: 10}); err == nil {
		t.Error("rule applied to unknown job")
	}
}

func TestApplyRuleToJobsGroupSplit(t *testing.T) {
	clk := clock.NewSim(epoch)
	c := New(clk)
	s1, c1 := localStage("s1", "jobA", clk)
	s2, c2 := localStage("s2", "jobB", clk)
	if err := c.Register(c1); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(c2); err != nil {
		t.Fatal(err)
	}
	rule := policy.Rule{ID: "grp", Rate: 2000}
	if err := c.ApplyRuleToJobs([]string{"jobA", "jobB"}, rule); err != nil {
		t.Fatal(err)
	}
	if s1.Rules()[0].Rate != 1000 || s2.Rules()[0].Rate != 1000 {
		t.Errorf("group split = %v/%v, want 1000/1000", s1.Rules()[0].Rate, s2.Rules()[0].Rate)
	}
	if err := c.ApplyRuleToJobs(nil, rule); err == nil {
		t.Error("empty group accepted")
	}
}

func TestApplyRuleClusterWide(t *testing.T) {
	clk := clock.NewSim(epoch)
	c := New(clk)
	s1, c1 := localStage("s1", "jobA", clk)
	s2, c2 := localStage("s2", "jobB", clk)
	s3, c3 := localStage("s3", "jobB", clk)
	for _, conn := range []*LocalConn{c1, c2, c3} {
		if err := c.Register(conn); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.ApplyRuleCluster(policy.Rule{ID: "cl", Rate: 3000}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*stage.Stage{s1, s2, s3} {
		if s.Rules()[0].Rate != 1000 {
			t.Errorf("cluster split rate = %v, want 1000", s.Rules()[0].Rate)
		}
	}
	empty := New(clk)
	if err := empty.ApplyRuleCluster(policy.Rule{ID: "cl", Rate: 1}); err == nil {
		t.Error("cluster rule accepted with no stages")
	}
}

func TestRegisterInstallsControlQueueWhenAlgorithmActive(t *testing.T) {
	clk := clock.NewSim(epoch)
	c := New(clk, WithAlgorithm(ProportionalShare{}), WithClusterLimit(300000))
	stg, conn := localStage("s1", "jobA", clk)
	if err := c.Register(conn); err != nil {
		t.Fatal(err)
	}
	rules := stg.Rules()
	if len(rules) != 1 || rules[0].ID != ControlRuleID {
		t.Fatalf("rules after register = %+v", rules)
	}
	if rules[0].Match.JobID != "jobA" {
		t.Errorf("control rule job scope = %q", rules[0].Match.JobID)
	}
}

func TestFeedbackLoopAllocatesByDemand(t *testing.T) {
	clk := clock.NewSim(epoch)
	c := New(clk, WithAlgorithm(ProportionalShare{}), WithClusterLimit(1000))
	c.SetReservation("jobA", 400)
	c.SetReservation("jobB", 600)
	sA, cA := localStage("s1", "jobA", clk)
	sB, cB := localStage("s2", "jobB", clk)
	if err := c.Register(cA); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(cB); err != nil {
		t.Fatal(err)
	}

	// Generate demand: jobA wants 2000 ops/s, jobB wants 100 ops/s.
	reqA := &posix.Request{Op: posix.OpOpen, Path: "/f", JobID: "jobA"}
	reqB := &posix.Request{Op: posix.OpOpen, Path: "/f", JobID: "jobB"}
	sA.Offer(reqA, 2000, time.Second)
	sB.Offer(reqB, 100, time.Second)
	clk.Advance(time.Second)
	sA.Offer(reqA, 0, time.Second)
	sB.Offer(reqB, 0, time.Second)

	alloc := c.RunOnce()
	if alloc == nil {
		t.Fatal("RunOnce returned nil with algorithm installed")
	}
	// jobB is under its reservation: capped near demand, floored at
	// reservation. jobA gets the leftover (bounded by the limit).
	if alloc["jobA"] < 700 {
		t.Errorf("jobA = %v, want most of the limit", alloc["jobA"])
	}
	if alloc["jobB"] < 600-1 {
		t.Errorf("jobB = %v, must keep its reservation floor", alloc["jobB"])
	}
	// The stage buckets must now carry the allocation.
	got := sA.Rules()[0].Rate
	if got != alloc["jobA"] {
		t.Errorf("stage rate = %v, allocation = %v", got, alloc["jobA"])
	}
}

func TestRunOnceWithoutAlgorithmIsNoop(t *testing.T) {
	c := New(clock.NewSim(epoch))
	if alloc := c.RunOnce(); alloc != nil {
		t.Errorf("RunOnce = %v, want nil", alloc)
	}
}

func TestCollectAllAggregatesPerJob(t *testing.T) {
	clk := clock.NewSim(epoch)
	c := New(clk, WithAlgorithm(StaticEqualShare{}), WithClusterLimit(1000))
	s1, c1 := localStage("s1", "jobA", clk)
	s2, c2 := localStage("s2", "jobA", clk)
	if err := c.Register(c1); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(c2); err != nil {
		t.Fatal(err)
	}
	req := &posix.Request{Op: posix.OpOpen, Path: "/f", JobID: "jobA"}
	s1.Offer(req, 100, time.Second)
	s2.Offer(req, 200, time.Second)
	clk.Advance(time.Second)
	s1.Offer(req, 0, time.Second)
	s2.Offer(req, 0, time.Second)
	snaps := c.CollectAll()
	if len(snaps) != 1 {
		t.Fatalf("snapshots = %+v", snaps)
	}
	if snaps[0].Stages != 2 {
		t.Errorf("stages = %d, want 2", snaps[0].Stages)
	}
	if snaps[0].Demand != 300 {
		t.Errorf("aggregated demand = %v, want 300", snaps[0].Demand)
	}
}

// failingConn simulates a dead stage.
type failingConn struct{ LocalConn }

func (f *failingConn) Collect() (stage.Stats, error) {
	return stage.Stats{}, errors.New("stage unreachable")
}

func TestCollectSkipsDeadStages(t *testing.T) {
	clk := clock.NewSim(epoch)
	var reported []string
	c := New(clk,
		WithAlgorithm(StaticEqualShare{}),
		WithClusterLimit(100),
		WithErrorHandler(func(id string, err error) { reported = append(reported, id) }),
	)
	stg, _ := localStage("dead", "jobX", clk)
	if err := c.Register(&failingConn{LocalConn{Stg: stg}}); err != nil {
		t.Fatal(err)
	}
	_, live := localStage("live", "jobY", clk)
	if err := c.Register(live); err != nil {
		t.Fatal(err)
	}
	snaps := c.CollectAll()
	if len(snaps) != 1 || snaps[0].JobID != "jobY" {
		t.Errorf("snapshots = %+v, want only jobY", snaps)
	}
	if len(reported) != 1 || reported[0] != "dead" {
		t.Errorf("error handler saw %v", reported)
	}
}

func TestRunLoopWithSimClock(t *testing.T) {
	clk := clock.NewSim(epoch)
	c := New(clk, WithAlgorithm(StaticEqualShare{}), WithClusterLimit(800))
	stg, conn := localStage("s1", "jobA", clk)
	if err := c.Register(conn); err != nil {
		t.Fatal(err)
	}
	c.Run(time.Second)
	defer c.Stop()
	// Let the loop goroutine park on the clock, then fire two rounds.
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < 2; i++ {
		for clk.PendingWaiters() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("loop never parked on the clock")
			}
			time.Sleep(time.Millisecond)
		}
		clk.Advance(time.Second)
	}
	// After at least one round, the single job owns the full limit.
	waitDeadline := time.Now().Add(5 * time.Second)
	for {
		if rules := stg.Rules(); len(rules) == 1 && rules[0].Rate == 800 {
			break
		}
		if time.Now().After(waitDeadline) {
			t.Fatalf("rate never converged: %+v", stg.Rules())
		}
		time.Sleep(time.Millisecond)
	}
	alloc := c.LastAllocation()
	if alloc["jobA"] != 800 {
		t.Errorf("LastAllocation = %v", alloc)
	}
}

func TestStopIdempotent(t *testing.T) {
	c := New(clock.NewSim(epoch))
	c.Stop() // never started: must not panic
	c.Run(time.Second)
	c.Stop()
	c.Stop()
}

func TestEndToEndOverNetwork(t *testing.T) {
	// Full integration: controller serves a registrar; a stage serves its
	// control service and registers over TCP; the feedback loop then
	// drives the stage's rates through RPC.
	clk := clock.NewReal()
	ctl := New(clk, WithAlgorithm(StaticEqualShare{}), WithClusterLimit(5000))
	srv, err := ctl.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stg := stage.New(stage.Info{StageID: "net-s1", JobID: "net-job", Hostname: "h", PID: 1, User: "u"}, clk)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stopStage := rpcio.ServeStage(l, stg)
	defer stopStage()

	if err := rpcio.RegisterWithController(srv.Addr(), stg.Info(), l.Addr().String()); err != nil {
		t.Fatal(err)
	}
	// Registration dials back and installs the control queue.
	deadline := time.Now().Add(5 * time.Second)
	for len(stg.Rules()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("control rule never arrived over RPC")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ctl.Jobs()[0] != "net-job" {
		t.Errorf("jobs = %v", ctl.Jobs())
	}

	alloc := ctl.RunOnce()
	if alloc["net-job"] != 5000 {
		t.Errorf("allocation = %v, want net-job:5000", alloc)
	}
	if got := stg.Rules()[0].Rate; got != 5000 {
		t.Errorf("stage rate over RPC = %v, want 5000", got)
	}

	if err := rpcio.DeregisterFromController(srv.Addr(), "net-s1"); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for len(ctl.Jobs()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("deregistration never processed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDependabilityStageDiesAndReconnects(t *testing.T) {
	// Full dependability round trip over real RPC: a stage dies mid-run
	// (connection refused), the loop keeps serving the healthy stage,
	// and the dead stage recovers by re-registering.
	clk := clock.NewReal()
	var errCount int
	var errMu sync.Mutex
	ctl := New(clk,
		WithAlgorithm(StaticEqualShare{}),
		WithClusterLimit(8000),
		WithErrorHandler(func(id string, err error) {
			errMu.Lock()
			errCount++
			errMu.Unlock()
		}))

	// Healthy stage, local transport.
	healthy, healthyConn := localStage("healthy", "jobH", clk)
	if err := ctl.Register(healthyConn); err != nil {
		t.Fatal(err)
	}

	// Fragile stage over TCP.
	fragile := stage.New(stage.Info{StageID: "fragile", JobID: "jobF"}, clk)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := rpcio.ServeStage(l, fragile)
	h, err := rpcio.DialStage(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Register(NewRemoteConn(fragile.Info(), h)); err != nil {
		t.Fatal(err)
	}

	// Both healthy: allocation covers both jobs.
	if alloc := ctl.RunOnce(); len(alloc) != 2 {
		t.Fatalf("allocation = %v", alloc)
	}

	// Kill the fragile stage's server and connection.
	stop()
	h.Close()

	// The loop must keep working for the healthy job and report errors
	// for the dead one.
	alloc := ctl.RunOnce()
	if alloc["jobH"] != 8000 {
		t.Errorf("healthy job starved after peer death: %v", alloc)
	}
	errMu.Lock()
	sawErrors := errCount > 0
	errMu.Unlock()
	if !sawErrors {
		t.Error("no stage errors reported for the dead stage")
	}

	// The stage restarts and re-registers under the same ID.
	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop2 := rpcio.ServeStage(l2, fragile)
	defer stop2()
	h2, err := rpcio.DialStage(l2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Register(NewRemoteConn(fragile.Info(), h2)); err != nil {
		t.Fatalf("re-registration: %v", err)
	}
	alloc = ctl.RunOnce()
	if alloc["jobF"] != 4000 || alloc["jobH"] != 4000 {
		t.Errorf("post-recovery allocation = %v", alloc)
	}
	_ = healthy
}

func TestGroupByUserSharesOneAllocation(t *testing.T) {
	// "Group of jobs" granularity: two jobs submitted by the same user
	// are orchestrated as one entity; a third job by another user gets
	// its own share.
	clk := clock.NewSim(epoch)
	c := New(clk,
		WithAlgorithm(StaticEqualShare{}),
		WithClusterLimit(8000),
		WithGroupBy(GroupByUser))

	mk := func(id, job, user string) *stage.Stage {
		stg := stage.New(stage.Info{StageID: id, JobID: job, User: user}, clk)
		if err := c.Register(&LocalConn{Stg: stg}); err != nil {
			t.Fatal(err)
		}
		return stg
	}
	sA1 := mk("s1", "jobA1", "alice")
	sA2 := mk("s2", "jobA2", "alice")
	sB := mk("s3", "jobB", "bob")

	// Two entities: alice and bob.
	if groups := c.Jobs(); len(groups) != 2 || groups[0] != "alice" || groups[1] != "bob" {
		t.Fatalf("groups = %v", groups)
	}
	alloc := c.RunOnce()
	if alloc["alice"] != 4000 || alloc["bob"] != 4000 {
		t.Fatalf("allocation = %v", alloc)
	}
	// Alice's 4000 splits across her two stages (jobs).
	for _, s := range []*stage.Stage{sA1, sA2} {
		if got := s.Rules()[0].Rate; got != 2000 {
			t.Errorf("alice stage rate = %v, want 2000", got)
		}
	}
	if got := sB.Rules()[0].Rate; got != 4000 {
		t.Errorf("bob stage rate = %v, want 4000", got)
	}
	// Collect aggregates by user too.
	snaps := c.CollectAll()
	if len(snaps) != 2 || snaps[0].JobID != "alice" || snaps[0].Stages != 2 {
		t.Errorf("snapshots = %+v", snaps)
	}
}

// ctlLimit reads the managed control queue's enforced limit.
func ctlLimit(t *testing.T, stg *stage.Stage) float64 {
	t.Helper()
	for _, q := range stg.Collect().Queues {
		if q.RuleID == ControlRuleID {
			return q.Limit
		}
	}
	t.Fatalf("stage %s has no control queue", stg.Info().StageID)
	return 0
}

// TestRegistryViewFollowsRegistryChanges: rounds read a copy-on-write
// view of the registry. Every registration and departure must show in
// the next read, in StageID order, and a caller's copy must not alias
// the view.
func TestRegistryViewFollowsRegistryChanges(t *testing.T) {
	clk := clock.NewSim(epoch)
	c := New(clk, WithAlgorithm(FixedRates{}), WithClusterLimit(1e6))
	c.SetReservation("jobA", 100)
	c.SetReservation("jobB", 40)
	stgs := map[string]*stage.Stage{}
	for _, s := range []struct{ id, job string }{{"s3", "jobB"}, {"s2", "jobA"}, {"s1", "jobA"}} {
		stg, conn := localStage(s.id, s.job, clk)
		stgs[s.id] = stg
		if err := c.Register(conn); err != nil {
			t.Fatal(err)
		}
	}
	ids := func() []string {
		var out []string
		for _, info := range c.Stages() {
			out = append(out, info.StageID)
		}
		return out
	}
	if got := ids(); len(got) != 3 || got[0] != "s1" || got[1] != "s2" || got[2] != "s3" {
		t.Fatalf("Stages = %v, want [s1 s2 s3]", got)
	}
	jobs := c.Jobs()
	jobs[0] = "clobbered"
	if got := c.Jobs(); len(got) != 2 || got[0] != "jobA" || got[1] != "jobB" {
		t.Fatalf("Jobs = %v after a caller modified its copy", got)
	}

	c.RunOnce()
	if got := ctlLimit(t, stgs["s1"]); got != 50 {
		t.Errorf("s1 limit = %v, want 50 (jobA's 100 split over two stages)", got)
	}

	// A departure shrinks the group the next round splits across.
	if !c.Deregister("s2") {
		t.Fatal("Deregister(s2) = false")
	}
	c.RunOnce()
	if got := ctlLimit(t, stgs["s1"]); got != 100 {
		t.Errorf("s1 limit = %v after s2 left, want 100", got)
	}

	// The group's sole stage restarting under its ID keeps the group's
	// reservation and resumes the last allocation.
	stg, conn := localStage("s1", "jobA", clk)
	if err := c.Register(conn); err != nil {
		t.Fatal(err)
	}
	if got := ctlLimit(t, stg); got != 100 {
		t.Errorf("re-registered s1 limit = %v, want the frozen 100", got)
	}
	if got := c.RunOnce()["jobA"]; got != 100 {
		t.Errorf("jobA allocation = %v after its stage restarted, want its reservation 100", got)
	}
	if got := ids(); len(got) != 2 || got[0] != "s1" || got[1] != "s3" {
		t.Fatalf("Stages = %v, want [s1 s3]", got)
	}
}
