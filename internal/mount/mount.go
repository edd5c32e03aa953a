// Package mount implements the mount-table router that underpins PADLL's
// request differentiation (§III-A): applications submit POSIX requests
// that may target the PFS or other local file systems (xfs, an NFS
// server), and only PFS-bound requests should be rate limited. The Router
// resolves each request's path to a mounted backend by longest-prefix
// match and forwards it, translating file descriptors so that fd-based
// follow-up operations (read, close, fstat) reach the backend that issued
// them and inherit its classification.
package mount

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"padll/internal/posix"
)

// Mount is one mount-table entry.
type Mount struct {
	// Prefix is the mount point, e.g. "/lustre" or "/tmp".
	Prefix string
	// FS is the backend serving paths under Prefix.
	FS posix.FileSystem
	// Controlled marks backends whose requests PADLL rate limits (the
	// shared PFS); uncontrolled mounts are forwarded without throttling.
	Controlled bool
	// Name labels the mount in stats and logs.
	Name string
}

// Router routes requests to mounted backends. It implements
// posix.FileSystem and is safe for concurrent use.
//
// The mount table is immutable after NewRouter (there is no mutator, and
// Mounts hands out a copy), so path resolution reads it without a lock;
// mu guards only the descriptor table.
type Router struct {
	mounts []Mount // sorted by descending prefix length for longest match

	mu     sync.RWMutex
	fds    map[int]fdEntry
	nextFD int
}

type fdEntry struct {
	mount     *Mount
	backendFD int
}

var _ posix.FileSystem = (*Router)(nil)

// NewRouter returns a router with the given mounts. Prefixes are
// normalized; duplicate prefixes are an error.
func NewRouter(mounts ...Mount) (*Router, error) {
	r := &Router{fds: make(map[int]fdEntry), nextFD: 3}
	seen := map[string]bool{}
	for _, m := range mounts {
		m.Prefix = normalize(m.Prefix)
		if m.FS == nil {
			return nil, fmt.Errorf("mount: nil backend for %q", m.Prefix)
		}
		if seen[m.Prefix] {
			return nil, fmt.Errorf("mount: duplicate prefix %q", m.Prefix)
		}
		seen[m.Prefix] = true
		if m.Name == "" {
			m.Name = m.Prefix
		}
		r.mounts = append(r.mounts, m)
	}
	sort.Slice(r.mounts, func(i, j int) bool {
		return len(r.mounts[i].Prefix) > len(r.mounts[j].Prefix)
	})
	return r, nil
}

func normalize(p string) string {
	if p == "" {
		return "/"
	}
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	if p != "/" {
		p = strings.TrimSuffix(p, "/")
	}
	return p
}

// Resolve returns the mount serving path by longest-prefix match, or nil
// when no mount matches. A path that is not rooted matches as if it
// were: the leading "/" of each prefix is skipped instead of prepended
// to the path, so no string is built per call.
func (r *Router) Resolve(path string) *Mount {
	rooted := strings.HasPrefix(path, "/")
	for i := range r.mounts {
		m := &r.mounts[i]
		p := m.Prefix
		if p == "/" {
			return m
		}
		if !rooted {
			p = p[1:]
		}
		// The prefix must end at a path boundary: "/scratch" serves
		// "/scratch" and "/scratch/a" but not "/scratchy".
		if strings.HasPrefix(path, p) && (len(path) == len(p) || path[len(p)] == '/') {
			return m
		}
	}
	return nil
}

// ResolveRequest returns the mount a request targets: by path for
// path-based operations, by descriptor for fd-based ones. The second
// result reports whether resolution succeeded.
func (r *Router) ResolveRequest(req *posix.Request) (*Mount, bool) {
	// Route's error only says whether req can be forwarded; the mount
	// is known whenever M is set.
	rt, _ := r.Route(req)
	return rt.M, rt.M != nil
}

// relativize rewrites a full path to the backend's namespace: the mount
// prefix is stripped so each backend sees rooted paths.
func relativize(m *Mount, path string) string {
	if m.Prefix == "/" {
		return path
	}
	rel := strings.TrimPrefix(path, m.Prefix)
	if rel == "" {
		rel = "/"
	}
	return rel
}

// opensFD reports whether the op allocates a descriptor on success.
func opensFD(op posix.Op) bool {
	switch op {
	case posix.OpOpen, posix.OpOpen64, posix.OpCreat, posix.OpOpendir:
		return true
	}
	return false
}

// closesFD reports whether the op releases a descriptor on success.
func closesFD(op posix.Op) bool {
	return op == posix.OpClose || op == posix.OpClosedir
}

// Route is one request's resolved destination.
type Route struct {
	// M is the mount the request's path or descriptor resolved to; nil
	// when it resolved to none.
	M *Mount
	// FD is the backend's own descriptor behind a virtual one, for
	// fd-based requests.
	FD int
}

// Route resolves req once: its path, or else its descriptor, to a mount.
// A non-nil error means the request cannot be forwarded. When the
// primary operand resolves to no mount, M is nil and the error is
// ErrNotExist (path) or ErrBadFD (descriptor). When only NewPath fails —
// unmounted (ErrNotExist) or on another mount (ErrCrossDevice, as
// rename/link across mounts is in POSIX) — M is still set, so a caller
// can classify the request by the mount it came from before failing it.
func (r *Router) Route(req *posix.Request) (Route, error) {
	var rt Route
	if req.Path == "" {
		r.mu.RLock()
		e, ok := r.fds[req.FD]
		r.mu.RUnlock()
		if !ok {
			return rt, posix.ErrBadFD
		}
		rt.M, rt.FD = e.mount, e.backendFD
		return rt, nil
	}
	rt.M = r.Resolve(req.Path)
	if rt.M == nil {
		return rt, posix.ErrNotExist
	}
	if req.NewPath != "" {
		switch nm := r.Resolve(req.NewPath); {
		case nm == nil:
			return rt, posix.ErrNotExist
		case nm != rt.M:
			return rt, posix.ErrCrossDevice
		}
	}
	return rt, nil
}

// ApplyRoute forwards req to rt's backend and maintains the virtual
// descriptor table; rt must come from a Route call on req that returned
// no error. The backend's operands — paths relative to the mount point,
// its own descriptor for a virtual one — are written into req for the
// duration of the call and the caller's are restored before ApplyRoute
// returns, so forwarding copies no request.
func (r *Router) ApplyRoute(rt Route, req *posix.Request, rep *posix.Reply) error {
	path, newPath, fd := req.Path, req.NewPath, req.FD
	if path != "" {
		req.Path = relativize(rt.M, path)
		if newPath != "" {
			req.NewPath = relativize(rt.M, newPath)
		}
	} else {
		req.FD = rt.FD
	}
	err := rt.M.FS.Apply(req, rep)
	req.Path, req.NewPath, req.FD = path, newPath, fd
	if err != nil {
		return err
	}
	if opensFD(req.Op) {
		rep.FD = r.openFD(rt.M, rep.FD) // the backend fd stays private
	} else if closesFD(req.Op) {
		r.closeFD(req.FD)
	}
	return nil
}

// Apply implements posix.FileSystem: Route, then ApplyRoute.
func (r *Router) Apply(req *posix.Request, rep *posix.Reply) error {
	rt, err := r.Route(req)
	if err != nil {
		return err
	}
	return r.ApplyRoute(rt, req, rep)
}

// openFD registers a backend descriptor and returns its virtual one.
//
//lint:coldpath descriptor-table insert once per open; the map reuses its storage once grown to the peak number of open descriptors
func (r *Router) openFD(m *Mount, backendFD int) int {
	r.mu.Lock()
	vfd := r.nextFD
	r.nextFD++
	r.fds[vfd] = fdEntry{mount: m, backendFD: backendFD}
	r.mu.Unlock()
	return vfd
}

// closeFD releases a virtual descriptor.
//
//lint:coldpath descriptor-table delete once per close; frees a slot, never allocates
func (r *Router) closeFD(vfd int) {
	r.mu.Lock()
	delete(r.fds, vfd)
	r.mu.Unlock()
}

// Mounts returns a copy of the mount table (longest prefix first).
func (r *Router) Mounts() []Mount {
	return append([]Mount(nil), r.mounts...)
}

// OpenFDs reports the number of live virtual descriptors.
func (r *Router) OpenFDs() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.fds)
}
