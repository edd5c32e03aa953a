package rpcio

import (
	"net"
	"reflect"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/stage"
)

// maxRule is a rule with every field (and every nested matcher field)
// populated, so a round trip that drops any field diverges from it.
func maxRule(id string) policy.Rule {
	return policy.Rule{
		ID: id,
		Match: policy.Matcher{
			Ops:        []posix.Op{posix.OpOpen, posix.OpStat, posix.OpOpendir},
			Classes:    []posix.Class{posix.ClassMetadata, posix.ClassData},
			PathPrefix: "/scratch/job-7",
			JobID:      "j1",
			User:       "alice",
		},
		Rate:   12345.5,
		Burst:  64,
		Action: policy.ActionDrop,
	}
}

func maxStats() stage.Stats {
	return stage.Stats{
		Info: stage.Info{StageID: "s9", JobID: "j1", Hostname: "node-3", PID: 4242, User: "alice"},
		Queues: []stage.QueueStats{
			{
				RuleID: "r1", Limit: 500, Burst: 25, ThroughputRate: 480.25,
				DemandRate: 900.75, Total: 1 << 40, TotalDemand: 1<<40 + 7,
				Dropped: 13, Waiting: 4, WaitP50: 0.001, WaitP95: 0.01, WaitP99: 0.1,
			},
			{RuleID: "r2", Limit: 1, Dropped: -1, Total: -5},
		},
		Passthrough:     987654321,
		Degraded:        true,
		DegradedSeconds: 12.75,
	}
}

// callFixture pairs one method's fully-populated args and reply values
// with matching zero-value destinations.
type callFixture struct {
	method   Method
	args     any // pointer to populated args
	argsDst  any // pointer to zero value of the same type
	reply    any // pointer to populated reply, nil when the reply is empty
	replyDst any
}

func callFixtures() []callFixture {
	st := maxStats()
	info := stage.Info{StageID: "sX", JobID: "jX", Hostname: "hX", PID: -3, User: "uX"}
	stageID := "s-departing"
	return []callFixture{
		{
			method:  MethodHealth,
			args:    &HealthProbe{Seq: 1 << 60},
			argsDst: &HealthProbe{},
			reply: &StageHealth{
				Seq: 1 << 60, Info: info, Degraded: true,
				DegradedSeconds: 99.5, Rules: 17,
			},
			replyDst: &StageHealth{},
		},
		{
			method: MethodBatch,
			args: &BatchArgs{
				Ops: []StageOp{
					{Kind: OpApplyRule, Rule: maxRule("b1")},
					{Kind: OpSetRate, ID: "b1", Rate: 42},
					{Kind: OpRemoveRule, ID: "b0"},
					{Kind: OpSetMode, Mode: stage.Passthrough},
				},
				Collect:  true,
				ClientID: 0xdeadbeef,
				AckEpoch: 1 << 50,
				AckGen:   12345,
			},
			argsDst: &BatchArgs{},
			reply: &BatchReply{
				Results: []OpResult{{Found: true}, {Found: false}, {Found: true}, {Found: true}},
				Delta: StatsDelta{
					Epoch: 1 << 50, Gen: 12346, Full: true,
					Info:        st.Info,
					Queues:      st.Queues,
					Removed:     []string{"gone-1", "gone-2"},
					Passthrough: -7,
					Degraded:    true, DegradedSeconds: 3.25,
				},
			},
			replyDst: &BatchReply{},
		},
		{
			method:  MethodAggAttach,
			args:    &AggAttachArgs{Seq: 1 << 55},
			argsDst: &AggAttachArgs{},
			reply: &AggInfo{
				Seq: 1 << 55, AggID: "agg-1", Stages: 32,
				Jobs: []string{"j1", "j2"},
			},
			replyDst: &AggInfo{},
		},
		{
			method: MethodAggRound,
			args: &AggRoundArgs{
				Grants: []JobGrant{
					{JobID: "j1", Rate: 30000},
					{JobID: "j2", Rate: 50000.5},
				},
				Collect: true,
			},
			argsDst: &AggRoundArgs{},
			reply: &AggRoundReply{
				AggID: "agg-1", Stages: 32,
				Jobs: []AggJobDelta{
					{
						JobID: "j1", Stages: 16, Demand: 61234.5,
						Throughput: 29999.875, WaitP99: 0.125,
						Dropped: -9, FailedStages: 2,
					},
					{
						JobID: "j2", Stages: 16, Demand: 1e9,
						Throughput: 50000.5, WaitP99: 3.5,
						Dropped: 1 << 40, FailedStages: 0,
					},
				},
				Borrowed: 12.5, Repaid: 10, Forgiven: 2.5,
			},
			replyDst: &AggRoundReply{},
		},
		{
			method:  MethodRegister,
			args:    &Registration{Info: info, Addr: "10.0.0.7:7171"},
			argsDst: &Registration{},
		},
		{
			method:  MethodDeregister,
			args:    &stageID,
			argsDst: new(string),
		},
		{
			method:   MethodRegistrarPing,
			args:     &HealthProbe{Seq: 1<<63 + 1},
			argsDst:  &HealthProbe{},
			reply:    &HealthProbe{Seq: 1<<63 + 1},
			replyDst: &HealthProbe{},
		},
	}
}

// TestBinaryCodecRoundTripsEveryMethod drives every method's args and
// reply through the dispatch encoders and decoders with fully-populated
// values. Decoding into a pre-dirtied destination (non-nil slices with
// stale elements) checks that decoders overwrite every field rather
// than merging — the property that lets the transport reuse one
// destination struct across calls.
func TestBinaryCodecRoundTripsEveryMethod(t *testing.T) {
	for _, fx := range callFixtures() {
		m := fx.method
		if fx.args != nil {
			buf, err := appendCallArgs(nil, m, fx.args)
			if err != nil {
				t.Errorf("%s: encode args: %v", fx.method, err)
				continue
			}
			if err := readCallArgs(m, buf, fx.argsDst); err != nil {
				t.Errorf("%s: decode args: %v", fx.method, err)
				continue
			}
			if !reflect.DeepEqual(fx.args, fx.argsDst) {
				t.Errorf("%s: args drifted over binary codec:\n in: %+v\nout: %+v", fx.method, fx.args, fx.argsDst)
			}
		}
		if fx.reply != nil {
			buf, err := appendCallReply(nil, m, fx.reply)
			if err != nil {
				t.Errorf("%s: encode reply: %v", fx.method, err)
				continue
			}
			if err := readCallReply(m, buf, fx.replyDst); err != nil {
				t.Errorf("%s: decode reply: %v", fx.method, err)
				continue
			}
			if !reflect.DeepEqual(fx.reply, fx.replyDst) {
				t.Errorf("%s: reply drifted over binary codec:\n in: %+v\nout: %+v", fx.method, fx.reply, fx.replyDst)
			}
		}
	}
}

// TestBinaryCodecOverwritesDirtyDestination decodes into destinations
// already holding longer slices and non-zero scalars from a previous
// call; any surviving stale element means a decoder merged instead of
// overwrote.
func TestBinaryCodecOverwritesDirtyDestination(t *testing.T) {
	small := BatchReply{
		Results: []OpResult{{Found: true}},
		Delta: StatsDelta{
			Info:   stage.Info{StageID: "tiny"},
			Queues: []stage.QueueStats{{RuleID: "only", Limit: 1}},
		},
	}
	buf, err := appendCallReply(nil, MethodBatch, &small)
	if err != nil {
		t.Fatal(err)
	}
	st := maxStats() // longer queue slice, every scalar non-zero
	dirty := BatchReply{
		Results: []OpResult{{Found: false}, {Found: true}},
		Delta: StatsDelta{
			Epoch: 9, Gen: 9, Full: true, Info: st.Info, Queues: st.Queues,
			Removed: []string{"stale"}, Passthrough: st.Passthrough,
			Degraded: true, DegradedSeconds: st.DegradedSeconds,
		},
	}
	if err := readCallReply(MethodBatch, buf, &dirty); err != nil {
		t.Fatal(err)
	}
	// The decoder reuses dirty's slices, so compare with the empty
	// Removed slice it leaves behind.
	small.Delta.Removed = dirty.Delta.Removed[:0]
	if !reflect.DeepEqual(small, dirty) {
		t.Errorf("stale state survived decode:\n in: %+v\nout: %+v", small, dirty)
	}

	bsmall := BatchArgs{Ops: []StageOp{{Kind: OpRemoveRule, ID: "x"}}, ClientID: 1}
	bbuf, err := appendCallArgs(nil, MethodBatch, &bsmall)
	if err != nil {
		t.Fatal(err)
	}
	bdirty := BatchArgs{
		Ops: []StageOp{
			{Kind: OpApplyRule, Rule: maxRule("stale-0")},
			{Kind: OpApplyRule, Rule: maxRule("stale-1")},
		},
		Collect: true, ClientID: 99, AckEpoch: 9, AckGen: 9,
	}
	if err := readCallArgs(MethodBatch, bbuf, &bdirty); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bsmall, bdirty) {
		t.Errorf("stale batch state survived decode:\n in: %+v\nout: %+v", bsmall, bdirty)
	}
}

// TestFrameHeaderRejectsMalformedInput exercises every validation arm of
// parseFrameHeader: each corruption must produce an error, never a
// silently wrong header.
func TestFrameHeaderRejectsMalformedInput(t *testing.T) {
	good := make([]byte, frameHeaderLen)
	putFrameHeader(good, frameHeader{
		kind: frameRequest, method: MethodBatch, stream: 7, channel: 1, length: 10,
	})
	if h, err := parseFrameHeader(good); err != nil {
		t.Fatalf("valid header rejected: %v", err)
	} else if h.kind != frameRequest || h.method != MethodBatch || h.stream != 7 || h.channel != 1 || h.length != 10 {
		t.Fatalf("valid header misparsed: %+v", h)
	}

	corrupt := func(mutate func([]byte)) []byte {
		b := append([]byte(nil), good...)
		mutate(b)
		return b
	}
	cases := map[string][]byte{
		"truncated":       good[:frameHeaderLen-1],
		"empty":           {},
		"bad magic":       corrupt(func(b []byte) { b[0] ^= 0xFF }),
		"version skew":    corrupt(func(b []byte) { b[4] = WireVersion + 1 }),
		"version zero":    corrupt(func(b []byte) { b[4] = 0 }),
		"oversize length": corrupt(func(b []byte) { b[20], b[21], b[22], b[23] = 0xFF, 0xFF, 0xFF, 0xFF }),
	}
	for name, b := range cases {
		if _, err := parseFrameHeader(b); err == nil {
			t.Errorf("%s: parseFrameHeader accepted malformed header", name)
		}
	}
}

// TestDecoderRejectsTruncatedPayloads truncates a valid encoded payload
// at every byte boundary: every prefix except the full payload must
// decode with an error (sticky-reader semantics), and none may panic.
func TestDecoderRejectsTruncatedPayloads(t *testing.T) {
	fx := callFixtures()
	for _, f := range fx {
		m := f.method
		// A deregistration's payload is the raw stage ID, delimited only
		// by the frame length: every prefix is a valid (shorter) ID.
		if f.args != nil && m != MethodDeregister {
			buf, err := appendCallArgs(nil, m, f.args)
			if err != nil {
				t.Fatal(err)
			}
			for cut := 0; cut < len(buf); cut++ {
				dst := reflect.New(reflect.TypeOf(f.argsDst).Elem()).Interface()
				if err := readCallArgs(m, buf[:cut], dst); err == nil {
					t.Errorf("%s args truncated at %d/%d decoded without error", f.method, cut, len(buf))
				}
			}
		}
		if f.reply != nil {
			buf, err := appendCallReply(nil, m, f.reply)
			if err != nil {
				t.Fatal(err)
			}
			for cut := 0; cut < len(buf); cut++ {
				dst := reflect.New(reflect.TypeOf(f.replyDst).Elem()).Interface()
				if err := readCallReply(m, buf[:cut], dst); err == nil {
					t.Errorf("%s reply truncated at %d/%d decoded without error", f.method, cut, len(buf))
				}
			}
		}
	}
}

// TestDecoderRejectsTrailingGarbage appends bytes after a valid payload;
// done() must flag the leftovers as a schema disagreement.
func TestDecoderRejectsTrailingGarbage(t *testing.T) {
	buf, err := appendCallArgs(nil, MethodHealth, &HealthProbe{Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, 0x00)
	if err := readCallArgs(MethodHealth, buf, &HealthProbe{}); err == nil {
		t.Error("trailing byte after args payload decoded without error")
	}
}

// TestHandleEquivalenceProperty is the multi-handle analogue of
// TestDeltaCollectMatchesDirectCollect: one stage served over TCP, two
// independent handles collecting it (each with its own delta state over
// the shared multiplexed connection), and a direct in-process Collect
// as ground truth. After every mutation all three snapshots must be
// equal. Halfway through, the
// server is torn down and rebuilt on the same port with a fresh stage
// (same ID): both live handles must redial, detect the epoch change,
// resync with a full snapshot, and converge again.
func TestHandleEquivalenceProperty(t *testing.T) {
	clk := clock.NewSim(epoch)
	info := stage.Info{StageID: "s1", JobID: "j1", Hostname: "n1", PID: 7, User: "u"}
	stg := stage.New(info, clk)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	stop := ServeStage(l, stg)

	hBin, err := DialStage(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hBin.Close()
	hAlt, err := DialStage(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hAlt.Close()

	checkConverged := func(step string) {
		t.Helper()
		want := stg.Collect()
		stBin, err := hBin.CollectDelta()
		if err != nil {
			t.Fatalf("%s: binary collect: %v", step, err)
		}
		stAlt, err := hAlt.CollectDelta()
		if err != nil {
			t.Fatalf("%s: second-handle collect: %v", step, err)
		}
		if !sameStats(stBin, want) {
			t.Fatalf("%s: binary snapshot diverged from direct Collect:\nbin:    %+v\ndirect: %+v", step, stBin, stg.Collect())
		}
		if !sameStats(stAlt, want) {
			t.Fatalf("%s: second handle diverged from direct Collect:\nalt:    %+v\ndirect: %+v", step, stAlt, stg.Collect())
		}
	}

	mutate := []func(){
		func() {
			if err := hBin.ApplyRule(maxRule("r1")); err != nil {
				t.Fatal(err)
			}
		},
		func() {
			stg.Offer(&posix.Request{Op: posix.OpOpen, JobID: "j1", User: "alice", Path: "/scratch/job-7/f"}, 500, time.Second)
			clk.Advance(2 * time.Second)
		},
		func() {
			if _, err := hAlt.SetRate("r1", 999); err != nil {
				t.Fatal(err)
			}
		},
		func() {
			if err := hAlt.ApplyRule(maxRule("r2")); err != nil {
				t.Fatal(err)
			}
		},
		func() {
			if _, err := hBin.RemoveRule("r2"); err != nil {
				t.Fatal(err)
			}
		},
		func() {
			if err := hBin.SetMode(stage.Passthrough); err != nil {
				t.Fatal(err)
			}
			stg.Offer(&posix.Request{Op: posix.OpStat, JobID: "other"}, 50, time.Second)
		},
	}
	for i, m := range mutate {
		m()
		checkConverged("mutation " + string(rune('a'+i)))
	}

	// Restart: new stage (fresh service epoch) behind the same address.
	// The listener may need a few dial attempts to rebind on slow hosts.
	stop()
	stg = stage.New(info, clk)
	var l2 net.Listener
	for i := 0; ; i++ {
		l2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i > 50 {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	stop2 := ServeStage(l2, stg)
	defer stop2()

	stg.ApplyRule(maxRule("post-restart"))
	stg.Offer(&posix.Request{Op: posix.OpOpen, JobID: "j1", User: "alice", Path: "/scratch/job-7/g"}, 100, time.Second)
	checkConverged("post-restart")
	clk.Advance(time.Second)
	stg.SetRate("post-restart", 321)
	checkConverged("post-restart steady")

	// Both handles must have resynced via at least one full snapshot
	// (initial + post-restart) and still be collecting incrementally.
	for name, h := range map[string]*StageHandle{"first": hBin, "second": hAlt} {
		fulls, deltas := h.CollectCounts()
		if fulls < 2 {
			t.Errorf("%s handle: %d full resyncs across restart, want >= 2", name, fulls)
		}
		if deltas == 0 {
			t.Errorf("%s handle: no incremental collects", name)
		}
	}
}
