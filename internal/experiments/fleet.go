package experiments

import (
	"fmt"
	"net"
	"strings"
	"time"

	"padll/internal/clock"
	"padll/internal/control"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/rpcio"
	"padll/internal/stage"
)

// E13 — fleet-scale wire protocol. The batched delta protocol folds a
// round's collect and rate pushes into one Stage.Batch round trip per
// stage and returns incremental per-queue deltas; this experiment
// measures steady-state control rounds at increasing fleet sizes, and
// counts what one batch saves over one round trip per operation.

// FleetRow is one measured point of the fleet sweep.
type FleetRow struct {
	// Transport is "tcp" or "loopback" (the encoded in-process
	// transport: the same frames, no sockets).
	Transport string
	// Stages is the registered fleet size.
	Stages int
	// RoundLatency is the mean wall time of one steady-state RunOnce.
	RoundLatency time.Duration
	// RPCs and WireBytes are per-round totals from the controller's
	// round accounting.
	RPCs      int
	WireBytes uint64
}

// FleetResult is the full E13 output.
type FleetResult struct {
	Rows []FleetRow
	// Management-round comparison on one stage: the RPC count for a
	// controller round that collects stats, retunes the control rate,
	// and installs fleetMgmtRules policy rules, issued one operation per
	// round trip versus as one batch.
	PerOpMgmtRPCs   int
	BatchedMgmtRPCs int
}

const (
	fleetJobs          = 8
	fleetRulesPerStage = 4
	fleetMgmtRules     = 4
	fleetIters         = 5
)

// fleetStage mirrors the control-package fleet benchmarks: admin rules
// give full snapshots realistic serialization weight.
func fleetStage(i int, clk clock.Clock) *stage.Stage {
	stg := stage.New(stage.Info{
		StageID:  fmt.Sprintf("s%04d", i),
		JobID:    fmt.Sprintf("job%02d", i%fleetJobs),
		Hostname: fmt.Sprintf("node%03d", i/8),
		PID:      1000 + i,
	}, clk)
	for r := 0; r < fleetRulesPerStage; r++ {
		stg.ApplyRule(policy.Rule{
			ID:   fmt.Sprintf("admin-%02d", r),
			Rate: float64(1000 * (r + 1)),
		})
	}
	return stg
}

// fleetPoint registers n stages and times steady-state control rounds.
func fleetPoint(n int, loopback bool) (FleetRow, error) {
	clk := clock.NewReal()
	ctl := control.New(clk,
		control.WithClusterLimit(1_000_000),
		control.WithAlgorithm(control.FixedRates{}))
	for j := 0; j < fleetJobs; j++ {
		ctl.SetReservation(fmt.Sprintf("job%02d", j), float64(1000*(j+1)))
	}

	var cleanups []func()
	defer func() {
		for _, c := range cleanups {
			c()
		}
	}()

	for i := 0; i < n; i++ {
		stg := fleetStage(i, clk)
		var h *rpcio.StageHandle
		if loopback {
			h = rpcio.EncodedLoopbackStage(rpcio.NewStageService(stg))
		} else {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return FleetRow{}, err
			}
			stop := rpcio.ServeStage(l, stg)
			h, err = rpcio.DialStage(l.Addr().String())
			if err != nil {
				stop()
				return FleetRow{}, err
			}
			cleanups = append(cleanups, func() { _ = h.Close(); stop() })
		}
		if err := ctl.Register(control.NewRemoteConn(stg.Info(), h)); err != nil {
			return FleetRow{}, err
		}
		stg.Offer(&posix.Request{Op: posix.OpOpen, JobID: stg.Info().JobID}, float64(100+i), time.Second)
	}

	// First round pays the one-time full snapshots and initial pushes;
	// the measured rounds are the steady state a long-lived fleet is in.
	ctl.RunOnce()
	start := clk.Now()
	for i := 0; i < fleetIters; i++ {
		ctl.RunOnce()
	}
	mean := clk.Now().Sub(start) / fleetIters

	row := FleetRow{
		Transport:    map[bool]string{true: "loopback", false: "tcp"}[loopback],
		Stages:       n,
		RoundLatency: mean,
	}
	if rs, ok := ctl.LastRound(); ok {
		row.RPCs = rs.RPCs()
		row.WireBytes = rs.BytesRead + rs.BytesWritten
	}
	return row, nil
}

// fleetManagementRound counts the RPC round trips one stage costs for a
// management round — collect stats, retune the control rate, install
// fleetMgmtRules rules — issued one operation per round trip and as one
// batch. The counts come from the stage service itself, not from
// protocol arithmetic.
func fleetManagementRound() (perOp, batchedCalls int, err error) {
	mgmtRules := func() []policy.Rule {
		rules := make([]policy.Rule, fleetMgmtRules)
		for i := range rules {
			rules[i] = policy.Rule{ID: fmt.Sprintf("mgmt-%d", i), Rate: float64(1000 * (i + 1))}
		}
		return rules
	}

	clk := clock.NewReal()

	// One round trip per operation: the handle's single-op methods.
	svc := rpcio.NewStageService(fleetStage(0, clk))
	h := rpcio.EncodedLoopbackStage(svc)
	if _, err = h.CollectDelta(); err != nil {
		return 0, 0, err
	}
	if _, err = h.SetRate("admin-00", 2000); err != nil {
		return 0, 0, err
	}
	for _, r := range mgmtRules() {
		if err = h.ApplyRule(r); err != nil {
			return 0, 0, err
		}
	}
	perOp = int(svc.Served().Calls)

	// The same round as one Stage.Batch RPC.
	svc2 := rpcio.NewStageService(fleetStage(1, clk))
	h2 := rpcio.EncodedLoopbackStage(svc2)
	ops := []rpcio.StageOp{{Kind: rpcio.OpSetRate, ID: "admin-00", Rate: 2000}}
	for _, r := range mgmtRules() {
		ops = append(ops, rpcio.StageOp{Kind: rpcio.OpApplyRule, Rule: r})
	}
	if _, _, err = h2.ExecBatch(ops, true); err != nil {
		return 0, 0, err
	}
	return perOp, int(svc2.Served().Calls), nil
}

// FleetScale runs the E13 sweep: 16/64/256 stages over TCP, plus a
// 1024-stage point over the encoded in-process transport (a single
// machine cannot hold 1024 live TCP stage services comfortably, and the
// loopback carries the identical frames).
func FleetScale() (FleetResult, error) {
	var res FleetResult
	for _, n := range []int{16, 64, 256} {
		row, err := fleetPoint(n, false)
		if err != nil {
			return FleetResult{}, err
		}
		res.Rows = append(res.Rows, row)
	}
	row, err := fleetPoint(1024, true)
	if err != nil {
		return FleetResult{}, err
	}
	res.Rows = append(res.Rows, row)

	res.PerOpMgmtRPCs, res.BatchedMgmtRPCs, err = fleetManagementRound()
	if err != nil {
		return FleetResult{}, err
	}
	return res, nil
}

// Render formats the E13 tables.
func (r FleetResult) Render() string {
	var b strings.Builder
	b.WriteString("E13 — fleet-scale wire protocol: batched delta rounds\n")
	fmt.Fprintf(&b, "  %-9s %7s %14s %11s %13s\n",
		"transport", "stages", "round latency", "rpcs/round", "wire B/round")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-9s %7d %14v %11d %13d\n",
			row.Transport, row.Stages,
			row.RoundLatency.Round(time.Microsecond), row.RPCs, row.WireBytes)
	}
	fmt.Fprintf(&b, "  management round (collect + set-rate + %d rule installs) on one stage:\n", fleetMgmtRules)
	ratio := "n/a"
	if r.BatchedMgmtRPCs > 0 {
		ratio = fmt.Sprintf("%.0fx fewer round trips", float64(r.PerOpMgmtRPCs)/float64(r.BatchedMgmtRPCs))
	}
	fmt.Fprintf(&b, "    one op per RPC: %d RPCs   batched: %d RPC   (%s)\n",
		r.PerOpMgmtRPCs, r.BatchedMgmtRPCs, ratio)
	b.WriteString("  (steady-state batched rounds skip unchanged-rate pushes entirely and\n")
	b.WriteString("   collect incremental deltas, so wire bytes stay flat as rules grow)\n")
	return b.String()
}
