package interpose

import (
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/localfs"
	"padll/internal/mount"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/stage"
)

var epoch = time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)

// rig builds app -> shim -> router{/pfs controlled, / local} with a stage.
func rig(t *testing.T, clk clock.Clock, mode stage.Mode) (*Shim, *posix.Client, *stage.Stage) {
	t.Helper()
	pfsBackend := localfs.New(clk)
	local := localfs.New(clk)
	router, err := mount.NewRouter(
		mount.Mount{Prefix: "/pfs", FS: pfsBackend, Controlled: true, Name: "pfs"},
		mount.Mount{Prefix: "/", FS: local, Name: "local"},
	)
	if err != nil {
		t.Fatal(err)
	}
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clk, stage.WithMode(mode))
	shim := New(router, stg, clk)
	return shim, posix.NewClient(shim).WithJob("j1", "alice", 42), stg
}

func TestTransparentForwarding(t *testing.T) {
	_, c, _ := rig(t, clock.NewSim(epoch), stage.Enforce)
	fd, err := c.Creat("/pfs/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(fd, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
	info, err := c.Stat("/pfs/f")
	if err != nil || info.Size != 2 {
		t.Fatalf("stat through shim = %+v, %v", info, err)
	}
}

func TestOnlyControlledMountsAreThrottled(t *testing.T) {
	clk := clock.NewSim(epoch)
	shim, c, stg := rig(t, clk, stage.Enforce)
	// Starve the PFS rule completely: burst 1, glacial refill.
	stg.ApplyRule(policy.Rule{ID: "all-pfs", Rate: 0.000001, Burst: 1})

	// Local-FS operations must not block even with the starved rule.
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 100; i++ {
			fd, err := c.Creat("/tmp-f", 0o644)
			if err != nil {
				done <- err
				return
			}
			if err := c.Close(fd); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("local-FS ops were throttled")
	}
	st := shim.Stats()
	if st.Bypassed != 200 {
		t.Errorf("bypassed = %d, want 200", st.Bypassed)
	}
	if st.Controlled != 0 {
		t.Errorf("controlled = %d, want 0", st.Controlled)
	}
}

func TestControlledRequestsAreThrottled(t *testing.T) {
	clk := clock.NewSim(epoch)
	shim, c, stg := rig(t, clk, stage.Enforce)
	stg.ApplyRule(policy.Rule{ID: "open-cap", Match: policy.Matcher{Ops: []posix.Op{posix.OpOpen, posix.OpCreat}}, Rate: 10, Burst: 2})

	results := make(chan error, 6)
	go func() {
		for i := 0; i < 6; i++ {
			_, err := c.Creat("/pfs/same", 0o644)
			results <- err
		}
	}()
	admitted := 0
	deadline := time.Now().Add(5 * time.Second)
	for admitted < 6 {
		select {
		case err := <-results:
			if err != nil {
				t.Fatal(err)
			}
			admitted++
		default:
			if time.Now().After(deadline) {
				t.Fatalf("only %d of 6 admitted", admitted)
			}
			clk.Advance(50 * time.Millisecond)
			time.Sleep(time.Millisecond)
		}
	}
	// 6 creats with burst 2 at 10/s require >= ~0.4 sim-seconds.
	if got := clk.Now().Sub(epoch); got < 300*time.Millisecond {
		t.Errorf("6 ops took %v sim time; throttling absent", got)
	}
	if shim.Stats().Controlled != 6 {
		t.Errorf("controlled = %d, want 6", shim.Stats().Controlled)
	}
}

func TestPassthroughModeNoThrottle(t *testing.T) {
	clk := clock.NewSim(epoch)
	shim, c, stg := rig(t, clk, stage.Passthrough)
	stg.ApplyRule(policy.Rule{ID: "starved", Rate: 0.000001, Burst: 1})
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 500; i++ {
			if _, err := c.GetAttr("/pfs"); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("passthrough mode blocked")
	}
	if got := shim.Stats().Controlled; got != 500 {
		t.Errorf("controlled = %d, want 500", got)
	}
}

func TestPerOpCounters(t *testing.T) {
	shim, c, _ := rig(t, clock.NewSim(epoch), stage.Enforce)
	fd, _ := c.Creat("/pfs/f", 0o644)
	c.Close(fd)
	c.GetAttr("/pfs/f")
	c.GetAttr("/pfs/f")
	st := shim.Stats()
	if st.PerOp[posix.OpCreat] != 1 || st.PerOp[posix.OpClose] != 1 || st.PerOp[posix.OpGetAttr] != 2 {
		t.Errorf("per-op = %v", st.PerOp)
	}
	if st.Intercepted != 4 {
		t.Errorf("intercepted = %d, want 4", st.Intercepted)
	}
}

func TestCustomDecider(t *testing.T) {
	clk := clock.NewSim(epoch)
	fs := localfs.New(clk)
	stg := stage.New(stage.Info{StageID: "s"}, clk)
	onlyRenames := func(req *posix.Request) bool { return req.Op == posix.OpRename }
	shim := New(fs, stg, clk, WithDecider(onlyRenames))
	c := posix.NewClient(shim)
	fd, _ := c.Creat("/f", 0o644)
	c.Close(fd)
	c.Rename("/f", "/g")
	st := shim.Stats()
	if st.Controlled != 1 || st.Bypassed != 2 {
		t.Errorf("controlled/bypassed = %d/%d, want 1/2", st.Controlled, st.Bypassed)
	}
}

func TestNonRouterBackendControlsEverything(t *testing.T) {
	clk := clock.NewSim(epoch)
	fs := localfs.New(clk)
	stg := stage.New(stage.Info{StageID: "s"}, clk)
	shim := New(fs, stg, clk)
	c := posix.NewClient(shim)
	fd, _ := c.Creat("/f", 0o644)
	c.Close(fd)
	if got := shim.Stats().Controlled; got != 2 {
		t.Errorf("controlled = %d, want 2", got)
	}
}

func TestIssuedTimestampStamped(t *testing.T) {
	clk := clock.NewSim(epoch)
	fs := localfs.New(clk)
	stg := stage.New(stage.Info{StageID: "s"}, clk)
	var seen time.Time
	probe := posix.FileSystemFunc(func(req *posix.Request, rep *posix.Reply) error {
		seen = req.Issued
		return fs.Apply(req, rep)
	})
	shim := New(probe, stg, clk)
	c := posix.NewClient(shim)
	fd, err := c.Creat("/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	c.Close(fd)
	if !seen.Equal(epoch) {
		t.Errorf("Issued = %v, want %v", seen, epoch)
	}
}

func TestStageAccessor(t *testing.T) {
	shim, _, stg := rig(t, clock.NewSim(epoch), stage.Enforce)
	if shim.Stage() != stg {
		t.Error("Stage() returned a different stage")
	}
}

func TestConcurrentInterposition(t *testing.T) {
	clk := clock.NewReal()
	shim, c, stg := func() (*Shim, *posix.Client, *stage.Stage) {
		backend := localfs.New(clk)
		stg := stage.New(stage.Info{StageID: "cc", JobID: "j"}, clk)
		shim := New(backend, stg, clk)
		return shim, posix.NewClient(shim).WithJob("j", "u", 1), stg
	}()
	stg.ApplyRule(policy.Rule{ID: "meta", Rate: 1e9, Burst: 1e9})
	fd, err := c.Creat("/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	c.Close(fd)

	const goroutines, perG = 8, 500
	done := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			for i := 0; i < perG; i++ {
				if _, err := c.GetAttr("/f"); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	st := shim.Stats()
	want := int64(goroutines*perG + 2)
	if st.Intercepted != want {
		t.Errorf("intercepted = %d, want %d", st.Intercepted, want)
	}
	qs := stg.Collect().Queues[0]
	if qs.Total != want {
		t.Errorf("queue total = %d, want %d", qs.Total, want)
	}
}

// A rename off the controlled mount is classified by its source, so it
// is enforced — taking its token — before the router fails it as a
// cross-device move. A policing rule with one token makes the
// consumption visible: the second attempt finds the bucket empty.
func TestCrossMountRenameIsEnforcedThenEXDEV(t *testing.T) {
	clk := clock.NewSim(epoch)
	shim, c, stg := rig(t, clk, stage.Enforce)
	stg.ApplyRule(policy.Rule{ID: "renames", Match: policy.Matcher{Ops: []posix.Op{posix.OpRename}},
		Rate: 0.000001, Burst: 1, Action: policy.ActionDrop})

	if err := c.Rename("/pfs/f", "/home/f"); err != posix.ErrCrossDevice {
		t.Fatalf("cross-mount rename = %v, want ErrCrossDevice", err)
	}
	st := shim.Stats()
	if st.Controlled != 1 || st.Bypassed != 0 {
		t.Errorf("controlled/bypassed = %d/%d, want 1/0", st.Controlled, st.Bypassed)
	}
	if q := stg.Collect().Queues[0]; q.Total != 1 {
		t.Errorf("rename queue admitted %d, want 1", q.Total)
	}
	if err := c.Rename("/pfs/f", "/home/f"); err != stage.ErrRateLimited {
		t.Errorf("second rename = %v, want ErrRateLimited (first one took the only token)", err)
	}
}

// Requests the router cannot place — a descriptor it never issued, a
// path under no mount — bypass the stage and fail with the router's
// error.
func TestUnroutableRequestsAreBypassed(t *testing.T) {
	clk := clock.NewSim(epoch)
	router, err := mount.NewRouter(mount.Mount{Prefix: "/pfs", FS: localfs.New(clk), Controlled: true})
	if err != nil {
		t.Fatal(err)
	}
	shim := New(router, stage.New(stage.Info{StageID: "s"}, clk), clk)
	c := posix.NewClient(shim)

	if _, err := c.FStat(9999); err != posix.ErrBadFD {
		t.Errorf("fstat of unknown fd = %v, want ErrBadFD", err)
	}
	if _, err := c.GetAttr("/elsewhere/f"); err != posix.ErrNotExist {
		t.Errorf("getattr of unmounted path = %v, want ErrNotExist", err)
	}
	st := shim.Stats()
	if st.Controlled != 0 || st.Bypassed != 2 {
		t.Errorf("controlled/bypassed = %d/%d, want 0/2", st.Controlled, st.Bypassed)
	}
}
