// Binary-codec round-trip tests for the wire types that cross process
// boundaries. They guard against field drift between a struct and its
// hand-written append/read pair: a field the codec forgot would come
// back zeroed. The test names keep the *SurviveGob suffix of the codec
// they were first written against, so their IDs stay stable.
package rpcio

import (
	"reflect"
	"testing"

	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/stage"
)

// roundTrip encodes in with its binary codec pair and returns the
// decoded value, failing the test on any decode error.
func roundTrip[T any](t *testing.T, in T, appendFn func([]byte, *T) []byte, readFn func(*wireReader, *T)) T {
	t.Helper()
	var out T
	r := wireReader{buf: appendFn(nil, &in)}
	readFn(&r, &out)
	if err := r.done(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

func TestHealthProbeSurvivesGob(t *testing.T) {
	in := HealthProbe{Seq: 1 << 40}
	if out := roundTrip(t, in, appendHealthProbe, readHealthProbe); out != in {
		t.Errorf("HealthProbe drifted: %+v vs %+v", out, in)
	}
}

func TestStageHealthSurvivesGob(t *testing.T) {
	in := StageHealth{
		Seq:             9,
		Info:            stage.Info{StageID: "s1", JobID: "j1", Hostname: "n1", PID: 42},
		Degraded:        true,
		DegradedSeconds: 3.5,
		Rules:           2,
	}
	if out := roundTrip(t, in, appendStageHealth, readStageHealth); !reflect.DeepEqual(in, out) {
		t.Errorf("StageHealth drifted over the wire:\n in: %+v\nout: %+v", in, out)
	}
}

func TestBatchArgsSurviveGob(t *testing.T) {
	in := BatchArgs{
		Ops: []StageOp{
			{Kind: OpApplyRule, Rule: policy.Rule{
				ID:     "cap",
				Match:  policy.Matcher{Ops: []posix.Op{posix.OpOpen}, JobID: "j1"},
				Rate:   5000,
				Burst:  100,
				Action: policy.ActionDrop,
			}},
			{Kind: OpRemoveRule, ID: "old"},
			{Kind: OpSetRate, ID: "cap", Rate: 2500},
			{Kind: OpSetMode, Mode: stage.Passthrough},
		},
		Collect:  true,
		AckEpoch: 1<<60 + 3,
		AckGen:   41,
	}
	if out := roundTrip(t, in, appendBatchArgs, readBatchArgs); !reflect.DeepEqual(in, out) {
		t.Errorf("BatchArgs drifted over the wire:\n in: %+v\nout: %+v", in, out)
	}
}

func TestBatchReplySurvivesGob(t *testing.T) {
	in := BatchReply{
		Results: []OpResult{{Found: true}, {Found: false}},
		Delta: StatsDelta{
			Epoch: 0xfeedface,
			Gen:   17,
			Full:  true,
			Info:  stage.Info{StageID: "s1", JobID: "j1", Hostname: "n1", PID: 42, User: "u"},
			Queues: []stage.QueueStats{{
				RuleID:         "cap",
				Limit:          5000,
				Burst:          100,
				ThroughputRate: 4200,
				DemandRate:     6000,
				Total:          1000,
				TotalDemand:    1500,
				Dropped:        3,
				Waiting:        7,
				WaitP50:        0.001,
				WaitP95:        0.005,
				WaitP99:        0.010,
			}},
			Removed:         []string{"gone-1", "gone-2"},
			Passthrough:     99,
			Degraded:        true,
			DegradedSeconds: 12.5,
		},
	}
	if out := roundTrip(t, in, appendBatchReply, readBatchReply); !reflect.DeepEqual(in, out) {
		t.Errorf("BatchReply drifted over the wire:\n in: %+v\nout: %+v", in, out)
	}
}

// A steady-state incremental delta (no queue changes, no removals) must
// encode to only a few dozen bytes — the property the fleet-scale
// collect path is built on — even with every scalar at a wide value.
func TestEmptyDeltaEncodesSmall(t *testing.T) {
	d := StatsDelta{Epoch: ^uint64(0), Gen: 1 << 62, Passthrough: 1 << 40}
	if n := len(appendStatsDelta(nil, &d)); n > 64 {
		t.Errorf("steady-state empty delta encodes to %d bytes, want <= 64", n)
	}
}

func TestStageStatsDegradedFieldsSurviveGob(t *testing.T) {
	in := StatsDelta{Degraded: true, DegradedSeconds: 12.25}
	out := roundTrip(t, in, appendStatsDelta, readStatsDelta)
	if !out.Degraded || out.DegradedSeconds != 12.25 {
		t.Errorf("StatsDelta degraded fields drifted: %+v", out)
	}
}
