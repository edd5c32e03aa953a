package control

import (
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/policy"
	"padll/internal/rpcio"
	"padll/internal/stage"
)

// The fleet benchmarks measure one feedback-loop round (RunOnce) at
// increasing stage counts over the batched protocol (RemoteConn): one
// Stage.Batch round trip per stage carrying the collect; steady-state
// collects are incremental deltas and unchanged rates skip the push
// round trip entirely.
//
// Each stage carries a realistic rule set (the managed control queue
// plus benchRulesPerStage administrator rules), so a full snapshot has
// real serialization weight, as it does on a production stage.
const (
	benchJobs          = 8
	benchRulesPerStage = 8
)

var benchEpoch = time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)

// benchStage builds one stage preloaded with admin rules.
func benchStage(i int) *stage.Stage {
	job := fmt.Sprintf("job%02d", i%benchJobs)
	stg := stage.New(stage.Info{
		StageID:  fmt.Sprintf("s%04d", i),
		JobID:    job,
		Hostname: fmt.Sprintf("node%03d", i/8),
		PID:      1000 + i,
	}, clock.NewSim(benchEpoch))
	for r := 0; r < benchRulesPerStage; r++ {
		stg.ApplyRule(policy.Rule{
			ID:   fmt.Sprintf("admin-%02d", r),
			Rate: float64(1000 * (r + 1)),
		})
	}
	return stg
}

// benchController builds the controller the fleet registers with:
// FixedRates with a reservation per job, so every round allocates the
// same nonzero rates — the steady state a long-lived fleet sits in.
func benchController(opts ...Option) *Controller {
	ctl := New(nil,
		append([]Option{
			WithClusterLimit(1_000_000),
			WithAlgorithm(FixedRates{}),
		}, opts...)...,
	)
	for j := 0; j < benchJobs; j++ {
		ctl.SetReservation(fmt.Sprintf("job%02d", j), float64(1000*(j+1)))
	}
	return ctl
}

// benchFleetTCP serves n stages over real TCP (each on its own loopback
// listener, as deployed fleets do) and registers them.
func benchFleetTCP(b *testing.B, n int, opts ...rpcio.DialOption) *Controller {
	b.Helper()
	ctl := benchController()
	for i := 0; i < n; i++ {
		stg := benchStage(i)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		stop := rpcio.ServeStage(l, stg)
		b.Cleanup(stop)
		h, err := rpcio.DialStage(l.Addr().String(), opts...)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { h.Close() })
		if err := ctl.Register(NewRemoteConn(stg.Info(), h)); err != nil {
			b.Fatal(err)
		}
	}
	return ctl
}

// benchFleetLoopback wires n stages through the encoded in-process
// transport — no sockets, but every exchange round-trips through the
// binary wire codec with exact frame-byte accounting — which is what
// lets a single machine hold a 1024-stage fleet and still report a
// truthful wireB/round.
func benchFleetLoopback(b *testing.B, n int, opts ...Option) *Controller {
	b.Helper()
	ctl := benchController(opts...)
	for i := 0; i < n; i++ {
		stg := benchStage(i)
		h := rpcio.EncodedLoopbackStage(rpcio.NewStageService(stg))
		if err := ctl.Register(NewRemoteConn(stg.Info(), h)); err != nil {
			b.Fatal(err)
		}
	}
	return ctl
}

// benchFleetMux serves n stages from one FrameServer on a single TCP
// listener and dials them through the shared multiplexed connection —
// the deployment shape where one node hosts many stages.
func benchFleetMux(b *testing.B, n int, opts ...rpcio.DialOption) *Controller {
	b.Helper()
	ctl := benchController()
	fs := rpcio.NewFrameServer()
	stages := make([]*stage.Stage, n)
	for i := 0; i < n; i++ {
		stages[i] = benchStage(i)
		fs.Add(rpcio.NewStageService(stages[i]))
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	stop := rpcio.ServeMux(l, fs)
	b.Cleanup(stop)
	for i := 0; i < n; i++ {
		stg := stages[i]
		h, err := rpcio.DialStage(l.Addr().String(),
			append([]rpcio.DialOption{rpcio.WithMuxStage(stg.Info().StageID)}, opts...)...)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { h.Close() })
		if err := ctl.Register(NewRemoteConn(stg.Info(), h)); err != nil {
			b.Fatal(err)
		}
	}
	return ctl
}

// benchFleetTree builds the hierarchical control plane: stages in
// shards of shardSize behind one Aggregator each, every layer speaking
// the real binary codec — stage members through encoded-loopback
// Stage.Batch handles, aggregators through encoded-loopback Agg.Round
// handles. The controller's round cost is one exchange per shard per
// phase, whatever the fleet size.
func benchFleetTree(b *testing.B, n, shardSize int) *Controller {
	b.Helper()
	ctl := benchController()
	for base := 0; base < n; base += shardSize {
		// Loopback member exchanges are pure CPU, so a single-machine
		// fleet runs its shards sequentially: concurrent workers only
		// add scheduler handoffs. Real TCP shards keep the worker pool
		// to overlap network latency.
		agg := NewAggregator(fmt.Sprintf("agg-%04d", base/shardSize), WithAggWorkers(1))
		end := base + shardSize
		if end > n {
			end = n
		}
		for i := base; i < end; i++ {
			stg := benchStage(i)
			h := rpcio.EncodedLoopbackStage(rpcio.NewStageService(stg))
			agg.AddMember(NewRemoteConn(stg.Info(), h))
		}
		conn, err := NewRemoteAggConn(rpcio.EncodedLoopbackAgg(rpcio.NewAggService(agg)))
		if err != nil {
			b.Fatal(err)
		}
		ctl.RegisterAggregator(conn)
	}
	return ctl
}

func runRounds(b *testing.B, ctl *Controller) {
	// Two rounds off the clock: the first pays the one-time full
	// snapshots and initial rate pushes, the second warms the delta and
	// reply buffers those first exchanges sized. Then collect the
	// fleet-construction garbage off the clock too: at 10k stages the
	// setup litter is tens of millions of objects, and letting the timed
	// loop inherit that debt makes ns/op a function of b.N rather than
	// of the round being measured.
	if ctl.RunOnce() == nil {
		b.Fatal("RunOnce returned nil allocation")
	}
	ctl.RunOnce()
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl.RunOnce()
	}
	b.StopTimer()
	rs, ok := ctl.LastRound()
	if !ok {
		b.Fatal("no round stats recorded")
	}
	b.ReportMetric(float64(rs.RPCs()), "rpcs/round")
	b.ReportMetric(float64(rs.BytesRead+rs.BytesWritten), "wireB/round")
}

func BenchmarkControllerRunOnce64(b *testing.B) {
	runRounds(b, benchFleetTCP(b, 64))
}

func BenchmarkControllerRunOnce256(b *testing.B) {
	runRounds(b, benchFleetTCP(b, 256))
}

func BenchmarkControllerRunOnce1024(b *testing.B) {
	runRounds(b, benchFleetLoopback(b, 1024))
}

// ...Pipelined fuses push and collect into one exchange per stage per
// round (WithPipelinedRounds): the rpcs/round metric should read ~1024
// against the two-phase loop's collect+push total.
func BenchmarkControllerRunOnce1024Pipelined(b *testing.B) {
	runRounds(b, benchFleetLoopback(b, 1024, WithPipelinedRounds()))
}

// ...Tree1024 runs the same 1024-stage fleet as RunOnce1024 through the
// aggregator tier (32 shards of 32): the controller exchanges 64 frames
// per round instead of 2048, and the shards fan out concurrently.
func BenchmarkControllerRunOnceTree1024(b *testing.B) {
	runRounds(b, benchFleetTree(b, 1024, 32))
}

// ...Tree10240 is the fleet-scale point the flat loop cannot reach in
// one control interval: 10240 stages behind 320 shards. The acceptance
// bar is a round cheaper per stage than the flat 1024 baseline.
func BenchmarkControllerRunOnceTree10240(b *testing.B) {
	runRounds(b, benchFleetTree(b, 10240, 32))
}

// ...Mux256 serves all 256 stages from one listener and multiplexes
// every handle over a single shared TCP connection — the per-node
// deployment shape — instead of 256 sockets.
func BenchmarkControllerRunOnceMux256(b *testing.B) {
	runRounds(b, benchFleetMux(b, 256))
}
