package interpose

import (
	"testing"

	"padll/internal/clock"
	"padll/internal/localfs"
	"padll/internal/mount"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/stage"
)

// The layer ladder measures one getattr at each successive composition
// of the interposed stack, in one run, so each layer's marginal cost is
// the difference between neighbouring rungs:
//
//	Backend     client → localfs
//	Stage       client → stage.Enforce + localfs
//	Shim        client → Shim → localfs
//	ShimRouter  client → Shim → Router → localfs  (the DataPlane shape)
//
// Every rung runs on the real clock with the unlimited metadata rule the
// passthrough experiment installs, and every rung is 0-alloc.

var ladderErr error

type ladder struct {
	clk     clock.Clock
	backend *localfs.FS
	stg     *stage.Stage
}

func newLadder(b *testing.B) *ladder {
	b.Helper()
	clk := clock.NewReal()
	l := &ladder{clk: clk, backend: localfs.New(clk), stg: stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clk)}
	l.stg.ApplyRule(policy.Rule{ID: "meta", Match: policy.Matcher{Classes: []posix.Class{posix.ClassMetadata}}, Rate: policy.Unlimited})
	c := posix.NewClient(l.backend)
	if err := c.Mkdir("/d", 0o755); err != nil {
		b.Fatal(err)
	}
	fd, err := c.Creat("/d/f", 0o644)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Close(fd); err != nil {
		b.Fatal(err)
	}
	return l
}

func runLadder(b *testing.B, top posix.FileSystem, path string) {
	c := posix.NewClient(top).WithJob("j1", "alice", 42)
	if _, err := c.GetAttr(path); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ladderErr = c.GetAttr(path)
	}
	if ladderErr != nil {
		b.Fatal(ladderErr)
	}
}

func BenchmarkLadderGetattrBackend(b *testing.B) {
	l := newLadder(b)
	runLadder(b, l.backend, "/d/f")
}

func BenchmarkLadderGetattrStage(b *testing.B) {
	l := newLadder(b)
	enforced := posix.FileSystemFunc(func(req *posix.Request, rep *posix.Reply) error {
		if err := l.stg.Enforce(req); err != nil {
			return err
		}
		return l.backend.Apply(req, rep)
	})
	runLadder(b, enforced, "/d/f")
}

func BenchmarkLadderGetattrShim(b *testing.B) {
	l := newLadder(b)
	runLadder(b, New(l.backend, l.stg, l.clk), "/d/f")
}

func BenchmarkLadderGetattrShimRouter(b *testing.B) {
	l := newLadder(b)
	router, err := mount.NewRouter(
		mount.Mount{Prefix: "/pfs", FS: l.backend, Controlled: true, Name: "pfs"},
		mount.Mount{Prefix: "/", FS: localfs.New(l.clk), Name: "local"},
	)
	if err != nil {
		b.Fatal(err)
	}
	runLadder(b, New(router, l.stg, l.clk), "/pfs/d/f")
}
