package main

import (
	"io/fs"
	"sort"
	"sync/atomic"
	"time"

	"padll/internal/clock"
	"padll/internal/control"
	"padll/internal/interpose"
	"padll/internal/mount"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/rpcio"
	"padll/internal/stage"
)

// layer names a span's boundary. Every span is recorded from this
// package, around a call into the named layer.
type layer uint8

const (
	lClient   layer = iota // typed posix.Client call issued by the generator
	lVFS                   // io/fs call into the vfs bridge
	lShim                  // interpose.Shim.Apply (includes stage.Enforce)
	lRouter                // mount.Router.Apply
	lLocalFS               // localfs backend Apply
	lOSFS                  // osfs backend Apply
	lRound                 // control.Controller.RunOnce
	lExchange              // one StageConn call over the rpcio wire
	numLayers
)

var layerNames = [numLayers]string{"client", "vfs", "interpose", "mount", "localfs", "osfs", "control", "rpcio"}

// span is one timed call. parent is the index of the enclosing span in
// the same tracer, or -1.
type span struct {
	start, end int64
	parent     int32
	layer      layer
}

// tracer keeps spans in a buffer sized up front, so recording never
// allocates; once it is full, further spans are dropped. Spans are
// analysed in memory after the run.
//
// cur and on describe the synchronous call chain of the one goroutine
// that drives a data-plane rig: on marks a sampled top-level call, cur is
// its innermost open span. Concurrent recorders (the controller's collect
// workers) name their parent explicitly instead.
type tracer struct {
	epoch time.Time
	spans []span
	n     atomic.Int64
	cur   int32
	on    bool
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity), cur: -1} //lint:allow clockcheck the benchmark measures wall-clock time
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) } //lint:allow clockcheck the benchmark measures wall-clock time

// reset drops every recorded span, so a measurement starts with an empty
// buffer after warm-up traffic. Nil-safe, for untraced stacks.
func (t *tracer) reset() {
	if t != nil {
		t.n.Store(0)
	}
}

// full reports whether the buffer has no room left.
func (t *tracer) full() bool { return t.n.Load() >= int64(len(t.spans)) }

// begin opens a span and returns its index, or -1 when the buffer is full.
func (t *tracer) begin(l layer, parent int32) int32 {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		return -1
	}
	t.spans[i] = span{start: t.now(), parent: parent, layer: l}
	return int32(i)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].end = t.now()
	}
}

// top opens a sampled top-level span on the synchronous chain.
func (t *tracer) top(l layer) int32 {
	id := t.begin(l, -1)
	t.on, t.cur = id >= 0, id
	return id
}

// done closes a top-level span opened by top.
func (t *tracer) done(id int32) {
	t.end(id)
	t.on, t.cur = false, -1
}

// recorded returns the completed spans.
func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its children cover. Children may overlap one another
// (concurrent collects under one round), so the covered part is the
// length of the union of the children's intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 && int(s.parent) < len(spans) {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		iv = iv[:0]
		for _, k := range kids[i] {
			lo, hi := spans[k].start, spans[k].end
			if lo < s.start {
				lo = s.start
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi int64
		open := false
		for _, x := range iv {
			if open && x[0] <= curHi {
				if x[1] > curHi {
					curHi = x[1]
				}
				continue
			}
			if open {
				covered += curHi - curLo
			}
			curLo, curHi, open = x[0], x[1], true
		}
		if open {
			covered += curHi - curLo
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// spanFS is a span-recording posix.FileSystem forwarder. Every layer
// boundary of the data plane is a posix.FileSystem, so one forwarder
// type instruments client→shim, shim→router and router→backend.
type spanFS struct {
	t    *tracer
	l    layer
	next posix.FileSystem
}

func (f *spanFS) Apply(req *posix.Request, rep *posix.Reply) error {
	t := f.t
	if !t.on {
		return f.next.Apply(req, rep)
	}
	parent := t.cur
	id := t.begin(f.l, parent)
	t.cur = id
	err := f.next.Apply(req, rep)
	t.end(id)
	t.cur = parent
	return err
}

// newShim composes the interposition shim over router as
// padll.NewDataPlane does and returns it with the file system the client
// or bridge should call. With a tracer, span forwarders wrap the router
// and the shim, and the shim decides control with the router's own
// resolver, exactly as its default decider does for an unwrapped router.
func newShim(router *mount.Router, stg *stage.Stage, clk clock.Clock, tr *tracer) (*interpose.Shim, posix.FileSystem) {
	if tr == nil {
		shim := interpose.New(router, stg, clk)
		return shim, shim
	}
	decide := func(req *posix.Request) bool {
		m, ok := router.ResolveRequest(req)
		return ok && m.Controlled
	}
	shim := interpose.New(&spanFS{t: tr, l: lRouter, next: router}, stg, clk, interpose.WithDecider(decide))
	return shim, &spanFS{t: tr, l: lShim, next: shim}
}

// spanVFS records a vfs span around every io/fs call fs.WalkDir and the
// walker make. It implements the same io/fs extension interfaces the
// walker uses, so the walk takes the same calls into the bridge.
type spanVFS struct {
	t    *tracer
	next interface {
		fs.ReadDirFS
		fs.StatFS
		fs.ReadFileFS
	}
	sample func() bool
}

func (v *spanVFS) Open(name string) (fs.File, error) {
	id := v.enter()
	f, err := v.next.Open(name)
	v.leave(id)
	return f, err
}

func (v *spanVFS) ReadDir(name string) ([]fs.DirEntry, error) {
	id := v.enter()
	es, err := v.next.ReadDir(name)
	v.leave(id)
	return es, err
}

func (v *spanVFS) Stat(name string) (fs.FileInfo, error) {
	id := v.enter()
	fi, err := v.next.Stat(name)
	v.leave(id)
	return fi, err
}

func (v *spanVFS) ReadFile(name string) ([]byte, error) {
	id := v.enter()
	b, err := v.next.ReadFile(name)
	v.leave(id)
	return b, err
}

// info calls DirEntry.Info, which stats through the bridge, as a vfs span.
func (v *spanVFS) info(d fs.DirEntry) (fs.FileInfo, error) {
	id := v.enter()
	fi, err := d.Info()
	v.leave(id)
	return fi, err
}

func (v *spanVFS) enter() int32 {
	if !v.sample() || v.t.full() {
		return -1
	}
	return v.t.top(lVFS)
}

func (v *spanVFS) leave(id int32) {
	if id >= 0 {
		v.t.done(id)
	}
}

// spanConn is a span-recording control.StageConn forwarder around a
// RemoteConn. It implements every optional interface RemoteConn does, so
// the controller still takes the batched, delta and wire-accounting
// paths. Calls run on the controller's collect and push workers
// concurrently, so each names the current round span as its parent.
type spanConn struct {
	t     *tracer
	round *atomic.Int32
	next  *control.RemoteConn
}

var (
	_ control.StageConn       = (*spanConn)(nil)
	_ control.BatchConn       = (*spanConn)(nil)
	_ control.BatchIntoConn   = (*spanConn)(nil)
	_ control.CollectIntoConn = (*spanConn)(nil)
	_ control.DeltaConn       = (*spanConn)(nil)
	_ control.WireStatser     = (*spanConn)(nil)
)

func (c *spanConn) enter() int32 {
	r := c.round.Load()
	if r < 0 {
		return -1
	}
	return c.t.begin(lExchange, r)
}

func (c *spanConn) Info() stage.Info { return c.next.Info() }

func (c *spanConn) ApplyRule(r policy.Rule) error {
	id := c.enter()
	err := c.next.ApplyRule(r)
	c.t.end(id)
	return err
}

func (c *spanConn) RemoveRule(ruleID string) (bool, error) {
	id := c.enter()
	ok, err := c.next.RemoveRule(ruleID)
	c.t.end(id)
	return ok, err
}

func (c *spanConn) SetRate(ruleID string, rate float64) (bool, error) {
	id := c.enter()
	ok, err := c.next.SetRate(ruleID, rate)
	c.t.end(id)
	return ok, err
}

func (c *spanConn) Collect() (stage.Stats, error) {
	id := c.enter()
	st, err := c.next.Collect()
	c.t.end(id)
	return st, err
}

func (c *spanConn) CollectInto(dst *stage.Stats) error {
	id := c.enter()
	err := c.next.CollectInto(dst)
	c.t.end(id)
	return err
}

func (c *spanConn) CollectChangedInto(dst *stage.Stats) (bool, error) {
	id := c.enter()
	changed, err := c.next.CollectChangedInto(dst)
	c.t.end(id)
	return changed, err
}

func (c *spanConn) ExecBatch(ops []rpcio.StageOp, collect bool) ([]rpcio.OpResult, stage.Stats, error) {
	id := c.enter()
	res, st, err := c.next.ExecBatch(ops, collect)
	c.t.end(id)
	return res, st, err
}

func (c *spanConn) ExecBatchInto(ops []rpcio.StageOp, collect bool, dst *stage.Stats) ([]rpcio.OpResult, error) {
	id := c.enter()
	res, err := c.next.ExecBatchInto(ops, collect, dst)
	c.t.end(id)
	return res, err
}

func (c *spanConn) WireStats() rpcio.WireStats { return c.next.WireStats() }

func (c *spanConn) SetMode(m stage.Mode) error {
	id := c.enter()
	err := c.next.SetMode(m)
	c.t.end(id)
	return err
}

func (c *spanConn) Close() error { return c.next.Close() }

// spanStats returns per-layer histograms of self time and of duration
// over the spans of the given tracers.
func spanStats(trs ...*tracer) (self, dur [numLayers]*hist) {
	for l := range self {
		self[l], dur[l] = newHist(), newHist()
	}
	for _, t := range trs {
		sp := t.recorded()
		st := selfTimes(sp)
		for i, s := range sp {
			self[s.layer].record(st[i])
			dur[s.layer].record(s.end - s.start)
		}
	}
	return self, dur
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
