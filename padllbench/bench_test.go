package main

import (
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/control"
	"padll/internal/rpcio"
	"padll/internal/stage"
)

func TestHistBucketsHoldTheirValues(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 100000; i++ {
		v := uint64(math.Exp(rng.Float64() * 40))
		lo, hi := histBounds(histIndex(v))
		if v < lo || v > hi {
			t.Fatalf("value %d in bucket [%d, %d]", v, lo, hi)
		}
		if hi-lo > lo/histSub {
			t.Fatalf("bucket [%d, %d] wider than 1/%d of its base", lo, hi, histSub)
		}
	}
	if got := histIndex(math.MaxInt64); got >= histBuckets {
		t.Fatalf("index of MaxInt64 = %d, out of %d buckets", got, histBuckets)
	}
}

func TestHistQuantilesMatchSortedReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for _, n := range []int{1, 10, 999, 100000} {
		h := newHist()
		ref := make([]int64, n)
		for i := range ref {
			ref[i] = int64(math.Exp(rng.Float64()*18)) + rng.Int64N(50)
			h.record(ref[i])
		}
		sort.Slice(ref, func(a, b int) bool { return ref[a] < ref[b] })
		for _, q := range []float64{0.01, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
			want := float64(ref[int(math.Ceil(q*float64(n)))-1])
			got := h.quantile(q)
			if math.Abs(got-want) > want/histSub+1 {
				t.Errorf("n=%d q=%v: got %v, sorted reference %v", n, q, got, want)
			}
		}
	}
}

func TestHistMerge(t *testing.T) {
	a, b, all := newHist(), newHist(), newHist()
	for i := int64(0); i < 1000; i++ {
		a.record(i)
		b.record(10 * i)
		all.record(i)
		all.record(10 * i)
	}
	a.merge(b)
	if !reflect.DeepEqual(a, all) {
		t.Fatal("merged histogram differs from one that recorded both")
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1},   // 0: round
		{start: 10, end: 40, parent: 0},    // 1: concurrent collects,
		{start: 20, end: 60, parent: 0},    // 2: overlapping 1
		{start: 90, end: 120, parent: 0},   // 3: runs past its parent
		{start: 25, end: 35, parent: 2},    // 4: grandchild of 0
		{start: 200, end: 260, parent: -1}, // 5: childless
	}
	got := selfTimes(spans)
	// Children of 0 cover [10,60] and [90,100]: 60 of its 100.
	want := []int64{40, 30, 30, 30, 10, 60}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestTracerConcurrentRecording(t *testing.T) {
	tr := newTracer(1000)
	root := tr.begin(lRound, -1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.end(tr.begin(lExchange, root))
			}
		}()
	}
	wg.Wait()
	tr.end(root)
	sp := tr.recorded()
	if len(sp) != 1000 || !tr.full() {
		t.Fatalf("recorded %d spans, full=%v; want the buffer's 1000", len(sp), tr.full())
	}
	self := selfTimes(sp)
	if self[root] < 0 || self[root] > sp[root].end-sp[root].start {
		t.Fatalf("round self time %d outside [0, %d]", self[root], sp[root].end-sp[root].start)
	}
}

// TestSpanConnKeepsControllerPaths checks that wrapping a fleet's
// connections in span recorders leaves the controller on the batched,
// delta and wire-accounting paths: the round costs the same calls and
// bytes as an unwrapped fleet, and every exchange lands under its round.
func TestSpanConnKeepsControllerPaths(t *testing.T) {
	var conn control.StageConn = &spanConn{}
	for name, ok := range map[string]bool{
		"BatchConn":       is[control.BatchConn](conn),
		"BatchIntoConn":   is[control.BatchIntoConn](conn),
		"CollectIntoConn": is[control.CollectIntoConn](conn),
		"DeltaConn":       is[control.DeltaConn](conn),
		"WireStatser":     is[control.WireStatser](conn),
	} {
		if !ok {
			t.Errorf("spanConn does not implement control.%s", name)
		}
	}

	run := func(traced bool) (control.RoundStats, *tracer) {
		tr := newTracer(1 << 12)
		var round atomic.Int32
		round.Store(-1)
		clk := clock.NewSim(time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC))
		ctl := control.New(clk, control.WithClusterLimit(1e9), control.WithAlgorithm(control.FixedRates{}))
		for j := 0; j < fleetJobs; j++ {
			ctl.SetReservation(fleetJob(j), fleetReservation(j))
		}
		for i := 0; i < 32; i++ {
			stg := stage.New(fleetInfo(i), clk)
			defer stg.Close()
			var c control.StageConn = control.NewRemoteConn(stg.Info(), rpcio.EncodedLoopbackStage(rpcio.NewStageService(stg)))
			if traced {
				c = &spanConn{t: tr, round: &round, next: c.(*control.RemoteConn)}
			}
			if err := ctl.Register(c); err != nil {
				t.Fatal(err)
			}
		}
		for r := 0; r < 3; r++ {
			id := tr.begin(lRound, -1)
			round.Store(id)
			if ctl.RunOnce() == nil {
				t.Fatal("round returned no allocation")
			}
			round.Store(-1)
			tr.end(id)
		}
		rs, _ := ctl.LastRound()
		return rs, tr
	}
	plain, _ := run(false)
	traced, tr := run(true)
	// Frame sizes vary by a few bytes with varint-coded counters, so the
	// wire bytes need only agree closely.
	bytes := func(rs control.RoundStats) float64 { return float64(rs.BytesRead + rs.BytesWritten) }
	if plain.CollectCalls != traced.CollectCalls || plain.PushCalls != traced.PushCalls ||
		plain.PushesSkipped != traced.PushesSkipped || math.Abs(bytes(plain)-bytes(traced)) > 0.02*bytes(plain) {
		t.Fatalf("traced round %+v differs from plain %+v", traced, plain)
	}
	if plain.BytesRead == 0 || plain.PushesSkipped != 32 {
		t.Fatalf("steady round not on the batched delta path: %+v", plain)
	}
	exchanges := 0
	for _, s := range tr.recorded() {
		if s.layer == lExchange {
			exchanges++
			if s.parent < 0 || tr.spans[s.parent].layer != lRound {
				t.Fatalf("exchange span without its round: %+v", s)
			}
		}
	}
	if exchanges < 3*32 {
		t.Fatalf("%d exchange spans for 3 rounds of 32 stages", exchanges)
	}
}

func is[T any](v any) bool {
	_, ok := v.(T)
	return ok
}

func TestSameSeedSameInputs(t *testing.T) {
	if !reflect.DeepEqual(genMetaProgram(5, 0), genMetaProgram(5, 0)) {
		t.Error("meta program differs for one seed")
	}
	if reflect.DeepEqual(genMetaProgram(5, 0), genMetaProgram(6, 0)) ||
		reflect.DeepEqual(genMetaProgram(5, 0), genMetaProgram(5, 1)) {
		t.Error("meta program ignores the seed or the job")
	}

	a1, r1, s1 := genFleetInputs(5)
	a2, r2, s2 := genFleetInputs(5)
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(s1, s2) {
		t.Error("fleet inputs differ for one seed")
	}
	if a3, _, _ := genFleetInputs(6); reflect.DeepEqual(a1, a3) {
		t.Error("fleet inputs ignore the seed")
	}

	tree := func(seed uint64) walkTree {
		w, err := makeWalkTree(t.TempDir(), seed)
		if err != nil {
			t.Fatal(err)
		}
		w.root = ""
		return *w
	}
	w5 := tree(5)
	if !reflect.DeepEqual(w5, tree(5)) {
		t.Error("walk tree differs for one seed")
	}
	if w6 := tree(6); w6.crcSum == w5.crcSum {
		t.Error("walk tree contents ignore the seed")
	}
	if w5.entries != 1+walkTop+walkTop*walkLeaves*(1+walkFiles) {
		t.Errorf("walk tree has %d entries", w5.entries)
	}
}

// TestMetaMixShares checks the generated PADLL_A-like call mix: about
// 48% getattr, 36% open+close, 15% rename, 5% local-mount calls.
func TestMetaMixShares(t *testing.T) {
	calls := map[string]float64{}
	var total float64
	for _, it := range genMetaProgram(1, 0) {
		switch it.kind {
		case mGetattr, mLocalGetattr:
			calls["getattr"]++
			if it.kind == mLocalGetattr {
				calls["local"]++
			}
		case mOpenClose:
			calls["open+close"] += 2
		case mOpenRead:
			calls["open+close"] += 2
			calls["pread"]++
		case mRename:
			calls["rename"]++
		case mScratch:
			calls["creat+close+unlink"] += 3
		}
	}
	for _, v := range calls {
		total += v
	}
	total -= calls["local"]
	for k, want := range map[string]float64{"getattr": 0.48, "open+close": 0.36, "rename": 0.15, "local": 0.05} {
		if got := calls[k] / total; math.Abs(got-want) > 0.02 {
			t.Errorf("%s share %.3f, want about %.2f", k, got, want)
		}
	}
}
