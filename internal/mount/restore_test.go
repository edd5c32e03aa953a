package mount_test

import (
	"errors"
	"io/fs"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/interpose"
	"padll/internal/localfs"
	"padll/internal/mount"
	"padll/internal/posix"
	"padll/internal/stage"
	"padll/internal/vfs"
)

var epoch = time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)

// scriptedFS is a backend whose outcome the test picks per call: it
// fails with err, or succeeds and hands out a fresh descriptor to ops
// that open one.
type scriptedFS struct {
	err    *error
	nextFD int
}

func (f *scriptedFS) Apply(req *posix.Request, rep *posix.Reply) error {
	if *f.err != nil {
		return *f.err
	}
	switch req.Op {
	case posix.OpOpen, posix.OpCreat, posix.OpOpendir:
		f.nextFD++
		rep.FD = f.nextFD
	}
	return nil
}

// restoreCheck sits above a forwarding layer and fails the test if the
// request it passed down comes back altered in any field.
type restoreCheck struct {
	t    *testing.T
	next posix.FileSystem
}

func (c restoreCheck) Apply(req *posix.Request, rep *posix.Reply) error {
	before := *req
	err := c.next.Apply(req, rep)
	if !reflect.DeepEqual(before, *req) {
		c.t.Errorf("%v came back as %v (fd %d -> %d)", &before, req, before.FD, req.FD)
	}
	return err
}

// Property: forwarding is invisible to the caller. Whatever the request
// — path, rename/link within, across or out of the mounts, descriptor
// valid, closed or never issued — and whatever the backend answers, the
// caller's Request is field for field what it was before Router.Apply
// or Shim.Apply, although the router rewrites Path, NewPath and FD in
// place while the backend runs.
func TestForwardingRestoresRequest(t *testing.T) {
	var backendErr error
	router, err := mount.NewRouter(
		mount.Mount{Prefix: "/pfs", FS: &scriptedFS{err: &backendErr}, Controlled: true},
		mount.Mount{Prefix: "/home", FS: &scriptedFS{err: &backendErr}},
	)
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewSim(epoch)
	shim := interpose.New(router, stage.New(stage.Info{StageID: "s"}, clk), clk)
	entries := []struct {
		name string
		fs   posix.FileSystem
	}{{"Router.Apply", router}, {"Shim.Apply", shim}}

	paths := []string{"/pfs/a", "/pfs", "/pfs/d/b", "/home/c", "/home", "/nowhere/x", "pfs/rel"}
	newPaths := []string{"/pfs/z", "/home/z", "/nowhere/z", "/pfs"}
	pathOps := []posix.Op{posix.OpGetAttr, posix.OpStat, posix.OpMkdir, posix.OpUnlink, posix.OpOpen, posix.OpCreat}
	fdOps := []posix.Op{posix.OpRead, posix.OpPRead, posix.OpFStat, posix.OpWrite, posix.OpClose}
	backendErrs := []error{nil, posix.ErrIO, posix.ErrNoSpace}
	payload := []byte("payload")

	var live, closed []int
	rng := rand.New(rand.NewPCG(7, 13))
	pick := func(n int) int { return rng.IntN(n) }
	for i := 0; i < 5000; i++ {
		req := posix.Request{
			Offset: int64(pick(4096)), Size: int64(pick(4096)), Flags: pick(8), Mode: 0o644,
			JobID: "job", User: "alice", PID: 42, Tenant: "t",
			// Pre-stamped, so the shim's own Issued stamp is not a change.
			Issued: epoch.Add(time.Duration(i)),
		}
		switch pick(3) {
		case 0:
			req.Op, req.Path = pathOps[pick(len(pathOps))], paths[pick(len(paths))]
		case 1:
			req.Op = []posix.Op{posix.OpRename, posix.OpLink}[pick(2)]
			req.Path, req.NewPath = paths[pick(len(paths))], newPaths[pick(len(newPaths))]
		default:
			req.Op, req.Data = fdOps[pick(len(fdOps))], payload
			switch {
			case len(live) > 0 && pick(2) == 0:
				req.FD = live[pick(len(live))]
			case len(closed) > 0 && pick(2) == 0:
				req.FD = closed[pick(len(closed))]
			default:
				req.FD = 1000 + pick(10) // never issued
			}
		}
		backendErr = backendErrs[pick(len(backendErrs))]
		e := entries[pick(len(entries))]

		before := req
		rep := new(posix.Reply)
		err := e.fs.Apply(&req, rep)
		if !reflect.DeepEqual(before, req) {
			t.Fatalf("step %d: %s changed the caller's request: %v (fd %d) -> %v (fd %d)",
				i, e.name, &before, before.FD, &req, req.FD)
		}
		switch {
		case err == nil:
		case errors.Is(err, backendErr), errors.Is(err, posix.ErrNotExist),
			errors.Is(err, posix.ErrBadFD), errors.Is(err, posix.ErrCrossDevice):
		default:
			t.Fatalf("step %d: %s: unexpected error %v", i, e.name, err)
		}
		if err != nil {
			continue
		}
		switch req.Op {
		case posix.OpOpen, posix.OpCreat:
			live = append(live, rep.FD)
		case posix.OpClose:
			for j, fd := range live {
				if fd == req.FD {
					live = append(live[:j], live[j+1:]...)
					break
				}
			}
			closed = append(closed, req.FD)
		}
	}
	if router.OpenFDs() != len(live) {
		t.Errorf("router holds %d descriptors, test opened and kept %d", router.OpenFDs(), len(live))
	}
}

// The same property through the io/fs bridge: every request the bridge
// issues — stats, streamed directory reads over routed descriptors,
// whole-file reads and writes, renames within and across mounts — comes
// back from the routed shim unaltered.
func TestBridgeOverRoutedShimRestoresRequests(t *testing.T) {
	clk := clock.NewSim(epoch)
	router, err := mount.NewRouter(
		mount.Mount{Prefix: "/pfs", FS: localfs.New(clk), Controlled: true},
		mount.Mount{Prefix: "/home", FS: localfs.New(clk)},
	)
	if err != nil {
		t.Fatal(err)
	}
	shim := interpose.New(router, stage.New(stage.Info{StageID: "s"}, clk), clk)
	v := vfs.New(restoreCheck{t: t, next: shim}, vfs.WithClock(clk))

	for _, name := range []string{"pfs/d", "home/d"} {
		if err := v.Mkdir(name, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, f := range []string{"a", "b"} {
			if err := v.WriteFile(name+"/"+f, []byte("data"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := fs.WalkDir(v, "pfs", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			_, err = v.ReadFile(p)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Stat("home/d/a"); err != nil {
		t.Fatal(err)
	}
	if err := v.Rename("pfs/d/a", "pfs/d/c"); err != nil {
		t.Fatal(err)
	}
	if err := v.Rename("pfs/d/c", "home/d/c"); !errors.Is(err, posix.ErrCrossDevice) {
		t.Errorf("cross-mount rename = %v, want ErrCrossDevice", err)
	}
	if _, err := v.Stat("nowhere/x"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("unmounted stat = %v, want ErrNotExist", err)
	}
	if router.OpenFDs() != 0 {
		t.Errorf("bridge left %d descriptors open", router.OpenFDs())
	}
}
