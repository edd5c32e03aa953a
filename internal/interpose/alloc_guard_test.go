package interpose

import (
	"testing"

	"padll/internal/clock"
	"padll/internal/mount"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/stage"
)

// guardPayload is package-level so the backend double can refill reply
// scratch without allocating inside the measured loop.
var guardPayload = []byte("xyzw")

// guardFS is a non-allocating backend double: it fills the reply fields
// the typed client methods read, appending into the caller's scratch.
var guardFS = posix.FileSystemFunc(func(req *posix.Request, rep *posix.Reply) error {
	switch req.Op {
	case posix.OpOpen:
		rep.FD = 3
	case posix.OpGetAttr:
		rep.Info.Size = int64(len(guardPayload))
	case posix.OpPRead:
		rep.Data = append(rep.Data[:0], guardPayload...)
		rep.N = int64(len(rep.Data))
	}
	return nil
})

// guardStack composes Client → Shim → Router{/pfs controlled, / local}
// over guardFS, with an unlimited metadata rule so controlled metadata
// calls take the stage's queue path and data calls its passthrough path.
func guardStack(t testing.TB) *posix.Client {
	t.Helper()
	clk := clock.NewReal()
	router, err := mount.NewRouter(
		mount.Mount{Prefix: "/pfs", FS: guardFS, Controlled: true, Name: "pfs"},
		mount.Mount{Prefix: "/", FS: guardFS, Name: "local"},
	)
	if err != nil {
		t.Fatal(err)
	}
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clk)
	stg.ApplyRule(policy.Rule{ID: "meta", Match: policy.Matcher{Classes: []posix.Class{posix.ClassMetadata}}, Rate: policy.Unlimited})
	return posix.NewClient(New(router, stg, clk)).WithJob("j1", "alice", 42)
}

// TestFullStackZeroAllocs is the runtime half of the //lint:hotpath
// contract on Shim.Apply: through the whole interposed stack — one route
// per call, operands forwarded in place, the amortized clock — a
// steady-state call allocates nothing beyond what the backend does.
func TestFullStackZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	c := guardStack(t)
	fd, err := c.Open("/pfs/f", posix.ORdOnly, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd)
	buf := make([]byte, len(guardPayload))

	ops := []struct {
		name string
		run  func() error
	}{
		{"GetAttr", func() error { _, err := c.GetAttr("/pfs/f"); return err }},
		{"Open+Close", func() error {
			fd, err := c.Open("/pfs/g", posix.ORdOnly, 0)
			if err != nil {
				return err
			}
			return c.Close(fd)
		}},
		{"PReadInto", func() error { _, err := c.PReadInto(fd, buf, 0); return err }},
		{"Rename", func() error { return c.Rename("/pfs/a", "/pfs/b") }},
		{"BypassedGetAttr", func() error { _, err := c.GetAttr("/home/f"); return err }},
	}
	for _, op := range ops {
		if err := op.run(); err != nil { // warm pools and the classification cache
			t.Fatalf("%s: %v", op.name, err)
		}
		if avg := testing.AllocsPerRun(1000, func() {
			if err := op.run(); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("%s allocates %.3f allocs/op through the interposed stack, want 0", op.name, avg)
		}
	}
}
