package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"time"

	"padll/internal/clock"
	"padll/internal/control"
	"padll/internal/interpose"
	"padll/internal/localfs"
	"padll/internal/mount"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/stage"
)

// The meta-* workloads replay the PFS_A metadata mix: getattr-heavy,
// with open/close pairs, renames, a little create/unlink and a few 4 KiB
// reads, over 32 dirs x 64 files per job under the controlled /pfs
// mount, plus some calls to an uncontrolled local mount.
const (
	metaDirs       = 32
	metaFiles      = 64
	metaLocalFiles = 16
	metaFileBytes  = 4096
	metaProgLen    = 1 << 16
	// cacheSlots is the stage's classification-cache size, reported
	// beside the workload's distinct classification keys.
	cacheSlots = 512
	// traceEvery samples one in this many generator items into spans.
	traceEvery = 8
	// spanCap bounds the span buffer of one traced rig.
	spanCap = 1 << 20
)

type metaKind uint8

const (
	mGetattr      metaKind = iota // getattr on /pfs
	mLocalGetattr                 // getattr on the uncontrolled local mount
	mOpenClose                    // open + close
	mOpenRead                     // open + 4 KiB pread + close
	mRename                       // rename to the file's other name
	mScratch                      // creat + close + unlink of a scratch file
	numMetaKinds
)

var metaKindNames = [numMetaKinds]string{"getattr", "local-getattr", "open+close", "open+pread+close", "rename", "creat+close+unlink"}

// metaWeights are item weights; with the calls each item issues they give
// about 48% getattr, 36% open+close, 15% rename and 5% local calls.
var metaWeights = [numMetaKinds]int{43, 5, 17, 1, 15, 1}

type metaItem struct {
	kind metaKind
	dir  uint8
	file uint8
}

// genMetaProgram generates one job's operation program from the seed;
// the generator cycles through it.
func genMetaProgram(seed uint64, job int) []metaItem {
	rng := rand.New(rand.NewPCG(seed, 0x6d657461+uint64(job)))
	total := 0
	for _, w := range metaWeights {
		total += w
	}
	prog := make([]metaItem, metaProgLen)
	for i := range prog {
		r := rng.IntN(total)
		k := metaKind(0)
		for r >= metaWeights[k] {
			r -= metaWeights[k]
			k++
		}
		prog[i] = metaItem{kind: k, dir: uint8(rng.IntN(metaDirs)), file: uint8(rng.IntN(metaFiles))}
	}
	return prog
}

// metaKeys counts the distinct (op, job, parent dir) classification keys
// a program presents to its stage. Local-mount calls bypass the stage and
// fd-based calls carry no path, so neither adds a key.
func metaKeys(prog []metaItem) int {
	type key struct {
		op  posix.Op
		dir uint8
	}
	seen := map[key]bool{}
	for _, it := range prog {
		switch it.kind {
		case mGetattr:
			seen[key{posix.OpGetAttr, it.dir}] = true
		case mOpenClose, mOpenRead:
			seen[key{posix.OpOpen, it.dir}] = true
		case mRename:
			seen[key{posix.OpRename, it.dir}] = true
		case mScratch:
			seen[key{posix.OpCreat, it.dir}] = true
			seen[key{posix.OpUnlink, it.dir}] = true
		}
	}
	return len(seen)
}

// metaRig is one job's data plane: client -> shim -> router -> backends,
// composed exactly as padll.NewDataPlane composes it. When traced, span
// forwarders sit at every boundary and the shim decides control with the
// router's own resolver, so classification is unchanged.
type metaRig struct {
	job    string
	router *mount.Router
	stg    *stage.Stage
	shim   *interpose.Shim
	client *posix.Client
	raw    *posix.Client // the shared PFS backend, below the data plane
	tr     *tracer

	prog    []metaItem
	pc      int
	names   [metaDirs][metaFiles][2]string
	state   [metaDirs][metaFiles]uint8
	scratch [metaDirs]string
	local   [metaLocalFiles]string
	buf     []byte

	issued  int64 // calls issued through the client over the rig's life
	ph      phase
	getattr *hist // /pfs getattr latencies while measuring
}

func newMetaRig(jobIdx int, seed uint64, pfs, local posix.FileSystem, traced bool) (*metaRig, error) {
	r := &metaRig{job: fmt.Sprintf("job%d", jobIdx), buf: make([]byte, metaFileBytes)}
	clk := clock.NewReal()
	var pfsFS, localFS posix.FileSystem = pfs, local
	if traced {
		r.tr = newTracer(spanCap)
		pfsFS = &spanFS{t: r.tr, l: lLocalFS, next: pfs}
		localFS = &spanFS{t: r.tr, l: lLocalFS, next: local}
	}
	router, err := mount.NewRouter(
		mount.Mount{Prefix: "/pfs", FS: pfsFS, Controlled: true, Name: "pfs:/pfs"},
		mount.Mount{Prefix: "/", FS: localFS, Name: "local:/"},
	)
	if err != nil {
		return nil, err
	}
	r.router = router
	r.stg = stage.New(stage.Info{
		StageID: r.job + "@node0#" + fmt.Sprint(1000+jobIdx), JobID: r.job,
		Hostname: "node0", PID: 1000 + jobIdx, User: "user" + fmt.Sprint(jobIdx),
	}, clk)
	var top posix.FileSystem
	r.shim, top = newShim(router, r.stg, clk, r.tr)
	info := r.stg.Info()
	r.client = posix.NewClient(top).WithJob(info.JobID, info.User, info.PID)
	r.raw = posix.NewClient(pfs)

	// Populate this job's subtree through the raw backends, below the
	// data plane, so set-up traffic is neither classified nor counted.
	data := make([]byte, metaFileBytes)
	rng := rand.New(rand.NewPCG(seed, 0x66696c65+uint64(jobIdx)))
	for i := range data {
		data[i] = byte(rng.Uint32())
	}
	if err := mkdirs(r.raw, "/"+r.job); err != nil {
		return nil, err
	}
	for d := 0; d < metaDirs; d++ {
		dir := fmt.Sprintf("/%s/d%02d", r.job, d)
		if err := r.raw.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		for f := 0; f < metaFiles; f++ {
			name := fmt.Sprintf("%s/f%02d", dir, f)
			if err := writeFile(r.raw, name, data); err != nil {
				return nil, err
			}
			r.names[d][f] = [2]string{"/pfs" + name, "/pfs" + name + ".r"}
		}
		r.scratch[d] = "/pfs" + dir + "/scratch"
	}
	rawLocal := posix.NewClient(local)
	if err := mkdirs(rawLocal, "/local/"+r.job); err != nil {
		return nil, err
	}
	for i := range r.local {
		r.local[i] = fmt.Sprintf("/local/%s/l%02d", r.job, i)
		if err := writeFile(rawLocal, r.local[i], data[:512]); err != nil {
			return nil, err
		}
	}
	r.prog = genMetaProgram(seed, jobIdx)
	return r, nil
}

func mkdirs(c *posix.Client, p string) error {
	parts := strings.Split(strings.Trim(p, "/"), "/")
	cur := ""
	for _, part := range parts {
		cur += "/" + part
		if err := c.Mkdir(cur, 0o755); err != nil && !errors.Is(err, posix.ErrExist) {
			return fmt.Errorf("mkdir %s: %w", cur, err)
		}
	}
	return nil
}

func writeFile(c *posix.Client, name string, data []byte) error {
	fd, err := c.Creat(name, 0o644)
	if err != nil {
		return fmt.Errorf("creat %s: %w", name, err)
	}
	if _, err := c.Write(fd, data); err != nil {
		return fmt.Errorf("write %s: %w", name, err)
	}
	return c.Close(fd)
}

// run drives the program in a closed loop until the deadline, timing
// every client call into lat.
func (r *metaRig) run(deadline time.Time, lat *hist) {
	c := r.client
	for {
		it := r.prog[r.pc]
		r.pc = (r.pc + 1) % len(r.prog)
		sampled := r.tr != nil && r.pc%traceEvery == 0 && !r.tr.full()
		var t1 time.Time
		switch it.kind {
		case mGetattr:
			t0, id := r.begin(sampled)
			_, err := c.GetAttr(r.names[it.dir][it.file][r.state[it.dir][it.file]])
			t1 = r.end(t0, id, err, lat)
			if r.getattr != nil {
				r.getattr.record(int64(t1.Sub(t0)))
			}
		case mLocalGetattr:
			t0, id := r.begin(sampled)
			_, err := c.GetAttr(r.local[int(it.file)%metaLocalFiles])
			t1 = r.end(t0, id, err, lat)
		case mOpenClose, mOpenRead:
			t0, id := r.begin(sampled)
			fd, err := c.Open(r.names[it.dir][it.file][r.state[it.dir][it.file]], posix.ORdOnly, 0)
			t1 = r.end(t0, id, err, lat)
			if err != nil {
				break
			}
			if it.kind == mOpenRead {
				t0, id = r.begin(sampled)
				n, err := c.PReadInto(fd, r.buf, 0)
				if err == nil && n != metaFileBytes {
					err = fmt.Errorf("pread returned %d bytes, want %d", n, metaFileBytes)
				}
				t1 = r.end(t0, id, err, lat)
			}
			t0, id = r.begin(sampled)
			err = c.Close(fd)
			t1 = r.end(t0, id, err, lat)
		case mRename:
			s := r.state[it.dir][it.file]
			t0, id := r.begin(sampled)
			err := c.Rename(r.names[it.dir][it.file][s], r.names[it.dir][it.file][1-s])
			t1 = r.end(t0, id, err, lat)
			if err == nil {
				r.state[it.dir][it.file] = 1 - s
			}
		case mScratch:
			t0, id := r.begin(sampled)
			fd, err := c.Creat(r.scratch[it.dir], 0o644)
			t1 = r.end(t0, id, err, lat)
			if err != nil {
				break
			}
			t0, id = r.begin(sampled)
			err = c.Close(fd)
			t1 = r.end(t0, id, err, lat)
			t0, id = r.begin(sampled)
			err = c.Unlink(r.scratch[it.dir])
			t1 = r.end(t0, id, err, lat)
		}
		if t1.After(deadline) {
			return
		}
	}
}

func (r *metaRig) begin(sampled bool) (time.Time, int32) {
	id := int32(-1)
	if sampled {
		id = r.tr.top(lClient)
	}
	return time.Now(), id //lint:allow clockcheck the benchmark measures wall-clock time
}

func (r *metaRig) end(t0 time.Time, id int32, err error, lat *hist) time.Time {
	t1 := time.Now() //lint:allow clockcheck the benchmark measures wall-clock time
	if id >= 0 {
		r.tr.done(id)
	}
	r.issued++
	r.ph.attempted++
	if err != nil {
		r.ph.recordErr(err)
	} else {
		r.ph.ops++
	}
	if lat != nil {
		lat.record(int64(t1.Sub(t0)))
	}
	return t1
}

// checkPopulation verifies through the raw backend that every file is
// present under exactly one of its names with its full size, and that no
// scratch file is left behind.
func (r *metaRig) checkPopulation() []string {
	var out []string
	for d := 0; d < metaDirs; d++ {
		for f := 0; f < metaFiles; f++ {
			s := r.state[d][f]
			cur := strings.TrimPrefix(r.names[d][f][s], "/pfs")
			other := strings.TrimPrefix(r.names[d][f][1-s], "/pfs")
			fi, err := r.raw.GetAttr(cur)
			if err != nil || fi.Size != metaFileBytes {
				out = append(out, fmt.Sprintf("%s: %v size %d", cur, err, fi.Size))
			}
			if _, err := r.raw.GetAttr(other); err == nil {
				out = append(out, other+" exists beside "+cur)
			}
		}
		dir := fmt.Sprintf("/%s/d%02d", r.job, d)
		es, err := r.raw.Readdir(dir)
		if err != nil || len(es) != metaFiles {
			out = append(out, fmt.Sprintf("%s holds %d entries (%v), want %d", dir, len(es), err, metaFiles))
		}
	}
	if len(out) > 5 {
		out = append(out[:5], fmt.Sprintf("... %d more", len(out)-5))
	}
	return out
}

// queueTotals sums admitted and arrived requests over a stage's queues.
type queueTotals struct {
	admitted, demand int64
	ctlAdmitted      int64 // the control plane's managed queue alone
	ctlLimit         float64
	waitP50, waitP99 float64 // managed queue, seconds
}

func totals(st stage.Stats) queueTotals {
	var q queueTotals
	for _, qs := range st.Queues {
		q.admitted += qs.Total
		q.demand += qs.TotalDemand
		if qs.RuleID == control.ControlRuleID {
			q.ctlAdmitted = qs.Total
			q.ctlLimit = qs.Limit
			q.waitP50, q.waitP99 = qs.WaitP50, qs.WaitP99
		}
	}
	return q
}

// metaBench is a meta-* workload: one rig per job over shared backends.
type metaBench struct {
	rigs []*metaRig
	ctl  *control.Controller // meta-throttled only

	before, after []queueTotals
	rounds        []time.Duration // control rounds seen during measure
	alloc         map[string]float64
}

const (
	throttleLimit    = 20000
	throttleInterval = 100 * time.Millisecond
)

var throttleReservations = []float64{12000, 4000}

func buildMetaPassthrough(e *env, traced bool) (instance, error) {
	rule, err := policy.Parse("limit id:passthrough class:metadata rate:unlimited")
	if err != nil {
		return nil, err
	}
	clk := clock.NewReal()
	r, err := newMetaRig(0, e.seed, localfs.New(clk), localfs.New(clk), traced)
	if err != nil {
		return nil, err
	}
	r.stg.ApplyRule(rule)
	b := &metaBench{rigs: []*metaRig{r}}
	// Warm the request pools, the classification cache and the heap.
	b.drive(200*time.Millisecond, nil)
	return b, nil
}

func buildMetaThrottled(e *env, traced bool) (instance, error) {
	clk := clock.NewReal()
	pfs, local := localfs.New(clk), localfs.New(clk)
	b := &metaBench{}
	b.ctl = control.New(clk,
		control.WithAlgorithm(control.ProportionalShare{}),
		control.WithClusterLimit(throttleLimit))
	for j := range throttleReservations {
		r, err := newMetaRig(j, e.seed, pfs, local, traced)
		if err != nil {
			b.close()
			return nil, err
		}
		b.rigs = append(b.rigs, r)
		b.ctl.SetReservation(r.job, throttleReservations[j])
		if err := b.ctl.Register(&control.LocalConn{Stg: r.stg}); err != nil {
			b.close()
			return nil, err
		}
	}
	b.ctl.Run(throttleInterval)
	// Drive the jobs until the feedback loop has settled: the stages
	// report demand over 1 s windows, so the allocation needs a few
	// rounds to reach its fixed point.
	deadline := time.Now().Add(15 * time.Second) //lint:allow clockcheck the benchmark measures wall-clock time
	var prev map[string]float64
	for stable := 0; stable < 5; {
		if time.Now().After(deadline) { //lint:allow clockcheck the benchmark measures wall-clock time
			b.close()
			return nil, fmt.Errorf("control loop did not settle: allocation %v", prev)
		}
		b.drive(250*time.Millisecond, nil)
		cur := b.ctl.LastAllocation()
		if settled(prev, cur) {
			stable++
		} else {
			stable = 0
		}
		prev = cur
	}
	return b, nil
}

// settled reports whether two allocations agree within 0.5% per job.
func settled(a, b map[string]float64) bool {
	if len(a) != len(throttleReservations) || len(b) != len(a) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || abs(v-w) > 0.005*v {
			return false
		}
	}
	return true
}

// drive runs every rig's generator on its own goroutine for d.
func (b *metaBench) drive(d time.Duration, lats []*hist) {
	deadline := time.Now().Add(d) //lint:allow clockcheck the benchmark measures wall-clock time
	var wg sync.WaitGroup
	for i, r := range b.rigs {
		var lat *hist
		if lats != nil {
			lat = lats[i]
		}
		wg.Add(1)
		go func(r *metaRig, lat *hist) {
			defer wg.Done()
			r.run(deadline, lat)
		}(r, lat)
	}
	wg.Wait()
}

func (b *metaBench) measure(d time.Duration) phase {
	b.before = b.before[:0]
	typical := newHist()
	for _, r := range b.rigs {
		r.ph = phase{}
		r.getattr = newHist()
		r.tr.reset()
		b.before = append(b.before, totals(r.stg.Collect()))
	}
	lats := make([]*hist, len(b.rigs))
	for i := range lats {
		lats[i] = newHist()
	}
	var stopRounds func()
	if b.ctl != nil {
		stopRounds = b.watchRounds()
	}
	start := time.Now() //lint:allow clockcheck the benchmark measures wall-clock time
	b.drive(d, lats)
	p := phase{elapsed: time.Since(start), lat: lats[0], typical: typical, tail: 0.99} //lint:allow clockcheck the benchmark measures wall-clock time
	if stopRounds != nil {
		stopRounds()
		b.alloc = b.ctl.LastAllocation()
	}
	b.after = b.after[:0]
	for i, r := range b.rigs {
		b.after = append(b.after, totals(r.stg.Collect()))
		if i > 0 {
			p.lat.merge(lats[i])
		}
		typical.merge(r.getattr)
		r.getattr = nil
		p.ops += r.ph.ops
		p.attempted += r.ph.attempted
		p.failed += r.ph.failed
		p.errs = append(p.errs, r.ph.errs...)
	}
	return p
}

// watchRounds samples the control loop's round durations until the
// returned stop function is called.
func (b *metaBench) watchRounds() (stop func()) {
	b.rounds = b.rounds[:0]
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last control.RoundStats
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			if rs, ok := b.ctl.LastRound(); ok && rs != last {
				b.rounds = append(b.rounds, rs.Duration)
				last = rs
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// admitted returns the managed queues' admitted metadata rate per job.
func (b *metaBench) admitted(p phase) []float64 {
	out := make([]float64, len(b.rigs))
	for i := range b.rigs {
		out[i] = float64(b.after[i].ctlAdmitted-b.before[i].ctlAdmitted) / p.elapsed.Seconds()
	}
	return out
}

// control outcome of meta-throttled: admitted over the cluster limit, and
// the worst job's admitted rate over its allocation.
func (b *metaBench) controlOutcome(p phase) (overLimit, tracking float64) {
	adm := b.admitted(p)
	var sum float64
	tracking = -1
	for i, r := range b.rigs {
		sum += adm[i]
		if a := b.alloc[r.job]; a > 0 {
			if t := adm[i] / a; tracking < 0 || t < tracking {
				tracking = t
			}
		}
	}
	return sum / throttleLimit, tracking
}

func (b *metaBench) check(p phase) []string {
	var out []string
	for _, r := range b.rigs {
		if n := r.router.OpenFDs(); n != 0 {
			out = append(out, fmt.Sprintf("%s: %d descriptors left open", r.job, n))
		}
		if st := r.shim.Stats(); st.Intercepted != r.issued {
			out = append(out, fmt.Sprintf("%s: shim intercepted %d calls, generator issued %d", r.job, st.Intercepted, r.issued))
		}
		out = append(out, r.checkPopulation()...)
	}
	if b.ctl != nil {
		over, tracking := b.controlOutcome(p)
		// The cluster limit is the protection the workload exists for;
		// token-bucket bursts allow a little slack over a run.
		if over > 1.02 {
			out = append(out, fmt.Sprintf("admitted %.3f x the cluster limit", over))
		}
		if tracking < 0.9 || tracking > 1.1 {
			out = append(out, fmt.Sprintf("a job received %.3f x its allocation %v", tracking, b.alloc))
		}
	}
	return out
}

func (b *metaBench) summary(p phase) map[string]any {
	shares := map[string]float64{}
	var total, local int64
	keys := []int{}
	for _, r := range b.rigs {
		st := r.shim.Stats()
		total += st.Intercepted
		local += st.Bypassed
		for op, n := range st.PerOp {
			shares[op.String()] += float64(n)
		}
		keys = append(keys, metaKeys(r.prog))
	}
	for k := range shares {
		shares[k] /= float64(total)
	}
	items := map[string]float64{}
	for _, it := range b.rigs[0].prog {
		items[metaKindNames[it.kind]] += 1.0 / metaProgLen
	}
	s := map[string]any{
		"op_shares_issued":      shares,
		"local_mount_share":     float64(local) / float64(total),
		"item_shares_generated": items,
		"classification_keys":   keys,
		"classification_slots":  cacheSlots,
		"files_per_job":         metaDirs * metaFiles,
		"dirs_per_job":          metaDirs,
		"jobs":                  len(b.rigs),
		"failed_frac":           float64(p.failed) / float64(p.attempted),
		"calls_measured":        p.attempted,
		"measured_seconds":      p.elapsed.Seconds(),
	}
	if b.ctl != nil {
		over, tracking := b.controlOutcome(p)
		s["admitted_per_job"] = b.admitted(p)
		s["allocation"] = b.alloc
		s["admitted_over_limit"] = over
		s["share_tracking"] = tracking
	}
	return s
}

func (b *metaBench) paths(p phase) map[string]float64 {
	var total, ctl, byp int64
	for _, r := range b.rigs {
		st := r.shim.Stats()
		total += st.Intercepted
		ctl += st.Controlled
		byp += st.Bypassed
	}
	return map[string]float64{
		"interpose.controlled": float64(ctl) / float64(total),
		"interpose.bypassed":   float64(byp) / float64(total),
	}
}

func (b *metaBench) layers(p, base phase) map[string]float64 {
	out := map[string]float64{}
	var trs []*tracer
	for _, r := range b.rigs {
		trs = append(trs, r.tr)
	}
	self, dur := spanStats(trs...)
	out["client.self_ns_p50"] = self[lClient].quantile(0.5)
	out["interpose.self_ns_p50"] = self[lShim].quantile(0.5)
	out["interpose.self_ns_p99"] = self[lShim].quantile(0.99)
	out["mount.self_ns_p50"] = self[lRouter].quantile(0.5)
	out["localfs.ns_p50"] = dur[lLocalFS].quantile(0.5)
	out["mount.backend_calls_per_op"] = ratio(dur[lLocalFS].n, dur[lShim].n)
	out["proc.allocs_per_op"] = float64(base.allocs) / float64(base.ops)
	out["proc.gc_cpu_frac"] = base.gcFrac
	for k, v := range b.paths(p) {
		out[k] = v
	}
	var adm, dem int64
	var w50, w99 float64
	for i := range b.rigs {
		adm += b.after[i].admitted - b.before[i].admitted
		dem += b.after[i].demand - b.before[i].demand
		if b.after[i].waitP50 > w50 {
			w50 = b.after[i].waitP50
		}
		if b.after[i].waitP99 > w99 {
			w99 = b.after[i].waitP99
		}
	}
	out["stage.admitted"] = float64(adm) / p.elapsed.Seconds()
	out["stage.demand"] = float64(dem) / p.elapsed.Seconds()
	if dem > 0 {
		out["stage.admitted_over_demand"] = float64(adm) / float64(dem)
	}
	out["stage.wait_p50_us"] = w50 * 1e6
	out["stage.wait_p99_us"] = w99 * 1e6
	if b.ctl != nil {
		over, tracking := b.controlOutcome(p)
		out["control.admitted_over_limit"] = over
		out["control.share_tracking"] = tracking
		ds := make([]float64, len(b.rounds))
		for i, d := range b.rounds {
			ds[i] = float64(d.Microseconds())
		}
		out["control.local_round_us_p50"] = median(ds)
	}
	return out
}

func (b *metaBench) close() {
	if b.ctl != nil {
		b.ctl.Stop()
	}
	for _, r := range b.rigs {
		r.stg.Close()
	}
}
