package main

import (
	"fmt"
	"math/rand/v2"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"padll/internal/clock"
	"padll/internal/control"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/rpcio"
	"padll/internal/stage"
)

// fleet-rounds: 1024 stages of 8 jobs behind one FrameServer, reached
// over one multiplexed TCP connection; each iteration drives Enforce
// calls into a fixed, seeded eighth of the stages and runs one control
// round.
const (
	fleetStages   = 1024
	fleetJobs     = 8
	fleetRules    = 8
	fleetActive   = fleetStages / 8
	fleetDrive    = 16 // Enforce calls per active stage per iteration
	fleetPerStage = 100_000
	fleetWarmup   = 3 // control rounds run during set-up
	fleetSample   = 16
)

// countingListener counts accepted connections, to show the whole fleet
// shares one.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

type fleetBench struct {
	stages  []*stage.Stage
	lis     *countingListener
	stop    func()
	handles []*rpcio.StageHandle
	ctl     *control.Controller
	active  []int
	reqs    [][fleetDrive]posix.Request
	sample  []int

	tr    *tracer
	round atomic.Int32

	rounds    []control.RoundStats
	badRounds []string
}

// fleetReservation is job j's rate: far above the offered load, so
// no Enforce call ever waits.
func fleetReservation(j int) float64 {
	return float64(fleetStages/fleetJobs) * fleetPerStage * float64(j+1)
}

func fleetJob(i int) string { return fmt.Sprintf("job%02d", i%fleetJobs) }

func fleetInfo(i int) stage.Info {
	return stage.Info{
		StageID:  fmt.Sprintf("s%04d", i),
		JobID:    fleetJob(i),
		Hostname: fmt.Sprintf("node%03d", i/8),
		PID:      1000 + i,
		User:     "user" + fleetJob(i),
	}
}

// genFleetInputs draws the active stages, the requests driven into each
// and the stages whose enforced rate is checked.
func genFleetInputs(seed uint64) (active []int, reqs [][fleetDrive]posix.Request, sample []int) {
	rng := rand.New(rand.NewPCG(seed, 0x666c6565))
	active = rng.Perm(fleetStages)[:fleetActive]
	sort.Ints(active)
	ops := []posix.Op{posix.OpGetAttr, posix.OpOpen, posix.OpStat, posix.OpRename, posix.OpCreat, posix.OpUnlink}
	reqs = make([][fleetDrive]posix.Request, fleetActive)
	for i, s := range active {
		info := fleetInfo(s)
		for k := range reqs[i] {
			reqs[i][k] = posix.Request{
				Op:    ops[rng.IntN(len(ops))],
				Path:  fmt.Sprintf("/pfs/%s/d%02d/f%02d", info.JobID, rng.IntN(32), rng.IntN(64)),
				JobID: info.JobID, User: info.User, PID: info.PID,
			}
		}
	}
	return active, reqs, rng.Perm(fleetStages)[:fleetSample]
}

func buildFleetRounds(e *env, traced bool) (instance, error) {
	b := &fleetBench{}
	b.round.Store(-1)
	clk := clock.NewReal()
	fsrv := rpcio.NewFrameServer()
	for i := 0; i < fleetStages; i++ {
		stg := stage.New(fleetInfo(i), clk)
		// Administrator rules scoped to paths the load never touches:
		// an empty matcher would match, and shape, the generated calls.
		for r := 0; r < fleetRules; r++ {
			stg.ApplyRule(policy.Rule{
				ID:    fmt.Sprintf("admin-%02d", r),
				Match: policy.Matcher{PathPrefix: fmt.Sprintf("/admin/r%02d", r)},
				Rate:  float64(1000 * (r + 1)),
			})
		}
		b.stages = append(b.stages, stg)
		fsrv.Add(rpcio.NewStageService(stg))
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.close()
		return nil, err
	}
	b.lis = &countingListener{Listener: l}
	b.stop = rpcio.ServeMux(b.lis, fsrv)
	b.ctl = control.New(clk,
		control.WithClusterLimit(1e12),
		control.WithAlgorithm(control.FixedRates{}))
	for j := 0; j < fleetJobs; j++ {
		b.ctl.SetReservation(fleetJob(j), fleetReservation(j))
	}
	if traced {
		b.tr = newTracer(spanCap)
	}
	for _, stg := range b.stages {
		h, err := rpcio.DialStage(l.Addr().String(), rpcio.WithMuxStage(stg.Info().StageID))
		if err != nil {
			b.close()
			return nil, err
		}
		b.handles = append(b.handles, h)
		var conn control.StageConn = control.NewRemoteConn(stg.Info(), h)
		if traced {
			conn = &spanConn{t: b.tr, round: &b.round, next: conn.(*control.RemoteConn)}
		}
		if err := b.ctl.Register(conn); err != nil {
			b.close()
			return nil, err
		}
	}

	b.active, b.reqs, b.sample = genFleetInputs(e.seed)

	// The first rounds pay the full snapshots and the initial pushes.
	var p phase
	for i := 0; i < fleetWarmup; i++ {
		b.iterate(&p, nil)
	}
	if p.failed > 0 {
		errs := append(p.errs, b.badRounds...)
		b.close()
		return nil, fmt.Errorf("warm-up rounds failed: %v", errs)
	}
	return b, nil
}

// iterate drives the active stages and runs one control round.
func (b *fleetBench) iterate(p *phase, lat *hist) {
	for i, s := range b.active {
		stg := b.stages[s]
		for k := range b.reqs[i] {
			p.attempted++
			if err := stg.Enforce(&b.reqs[i][k]); err != nil {
				p.recordErr(err)
			}
		}
	}
	id := int32(-1)
	if b.tr != nil && !b.tr.full() {
		id = b.tr.begin(lRound, -1)
		b.round.Store(id)
	}
	t0 := time.Now() //lint:allow clockcheck the benchmark measures wall-clock time
	alloc := b.ctl.RunOnce()
	t1 := time.Now() //lint:allow clockcheck the benchmark measures wall-clock time
	if id >= 0 {
		b.round.Store(-1)
		b.tr.end(id)
	}
	p.attempted++
	rs, _ := b.ctl.LastRound()
	if lat != nil {
		lat.record(int64(t1.Sub(t0)))
		b.rounds = append(b.rounds, rs)
	}
	if len(alloc) != fleetJobs || rs.CollectFailures > 0 {
		err := fmt.Errorf("round allocated %d jobs with %d collect failures", len(alloc), rs.CollectFailures)
		p.recordErr(err)
		if len(b.badRounds) < 5 {
			b.badRounds = append(b.badRounds, err.Error())
		}
		return
	}
	p.ops++
}

func (b *fleetBench) measure(d time.Duration) phase {
	p := phase{lat: newHist(), tail: 0.95}
	p.typical = p.lat
	b.rounds = b.rounds[:0]
	b.tr.reset()
	start := time.Now() //lint:allow clockcheck the benchmark measures wall-clock time
	deadline := start.Add(d)
	for time.Now().Before(deadline) { //lint:allow clockcheck the benchmark measures wall-clock time
		b.iterate(&p, p.lat)
	}
	p.elapsed = time.Since(start) //lint:allow clockcheck the benchmark measures wall-clock time
	return p
}

func (b *fleetBench) check(p phase) []string {
	out := append([]string(nil), b.badRounds...)
	if n := b.lis.accepted.Load(); n != 1 {
		out = append(out, fmt.Sprintf("fleet used %d TCP connections, want 1", n))
	}
	alloc := b.ctl.LastAllocation()
	for _, s := range b.sample {
		st := b.stages[s].Collect()
		job := st.Info.JobID
		want := alloc[job] / float64(fleetStages/fleetJobs)
		got := totals(st).ctlLimit
		if want != fleetReservation(s%fleetJobs)/float64(fleetStages/fleetJobs) || abs(got-want) > 1e-9*want {
			out = append(out, fmt.Sprintf("stage %s enforces %.2f, plan is %.2f", st.Info.StageID, got, want))
		}
	}
	return out
}

func (b *fleetBench) perRound() (collect, push, skipped, bytes float64, failures int) {
	for _, rs := range b.rounds {
		collect += float64(rs.CollectCalls)
		push += float64(rs.PushCalls)
		skipped += float64(rs.PushesSkipped)
		bytes += float64(rs.BytesRead + rs.BytesWritten)
		failures += rs.CollectFailures
	}
	n := float64(len(b.rounds))
	return collect / n, push / n, skipped / n, bytes / n, failures
}

func (b *fleetBench) summary(p phase) map[string]any {
	collect, push, skipped, bytes, _ := b.perRound()
	return map[string]any{
		"stages":                   fleetStages,
		"jobs":                     fleetJobs,
		"admin_rules_per_stage":    fleetRules,
		"active_stage_frac":        float64(len(b.active)) / fleetStages,
		"enforce_per_active_stage": fleetDrive,
		"rounds":                   len(b.rounds),
		"round_p50_ms":             p.lat.quantile(0.5) / 1e6,
		"round_p95_ms":             p.lat.quantile(0.95) / 1e6,
		"collect_calls_per_round":  collect,
		"push_calls_per_round":     push,
		"pushes_skipped_per_round": skipped,
		"wire_bytes_per_round":     bytes,
		"tcp_connections":          b.lis.accepted.Load(),
		"failed_frac":              float64(p.failed) / float64(p.attempted),
	}
}

func (b *fleetBench) paths(p phase) map[string]float64 {
	collect, push, skipped, _, _ := b.perRound()
	return map[string]float64{
		"control.collect_calls_per_round":  collect,
		"control.push_calls_per_round":     push,
		"control.pushes_skipped_per_round": skipped,
	}
}

func (b *fleetBench) layers(p, base phase) map[string]float64 {
	out := b.paths(p)
	self, dur := spanStats(b.tr)
	_, _, _, bytes, failures := b.perRound()
	out["rpcio.exchange_us_p50"] = dur[lExchange].quantile(0.5) / 1e3
	out["rpcio.exchange_us_p95"] = dur[lExchange].quantile(0.95) / 1e3
	out["rpcio.wire_bytes_per_round"] = bytes
	out["control.round_self_ms_p50"] = self[lRound].quantile(0.5) / 1e6
	out["control.collect_failures"] = float64(failures)
	out["proc.allocs_per_op"] = float64(base.allocs) / float64(base.ops)
	out["proc.gc_cpu_frac"] = base.gcFrac
	return out
}

func (b *fleetBench) close() {
	if b.ctl != nil {
		b.ctl.Stop()
	}
	for _, h := range b.handles {
		// Tear-down: a failed close leaves nothing to recover.
		_ = h.Close()
	}
	if b.stop != nil {
		b.stop()
	}
	for _, s := range b.stages {
		s.Close()
	}
}
