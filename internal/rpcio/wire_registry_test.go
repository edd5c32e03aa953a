package rpcio

import (
	"crypto/sha256"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"padll/internal/policy"
	"padll/internal/stage"
)

// wireRegistry locks the field sets of every struct that crosses the
// control-plane wire, directly (Call args/replies) or transitively
// (types embedded in them). The binary codec encodes fields by position,
// with no names on the wire, so a peer cannot detect a schema change
// from the bytes alone. The contract is version-bump, not append-only: a
// schema change updates this registry, the codec's append/read pair and
// codecFieldCoverage together, and moves WireVersion to a new entry in
// wireSchemaFingerprints; TestWireSchemaFingerprintMatchesVersion fails
// until all of that lands, and peers on different versions refuse each
// other's frames instead of misreading them.
//
// Only exported fields are registered: the codec never encodes
// unexported ones (see policy.Matcher.prefixSlash, a receiver-side
// cache).
var wireRegistry = map[string][]string{
	// rpcio.go: registrar and health probe.
	"rpcio.Registration": {"Info stage.Info", "Addr string"},
	"rpcio.HealthProbe":  {"Seq uint64"},
	"rpcio.StageHealth": {
		"Seq uint64", "Info stage.Info", "Degraded bool",
		"DegradedSeconds float64", "Rules int",
	},

	// batch.go: batched delta protocol.
	"rpcio.StageOp": {
		"Kind rpcio.OpKind", "Rule policy.Rule", "ID string",
		"Rate float64", "Mode stage.Mode",
	},
	"rpcio.OpResult": {"Found bool"},
	"rpcio.BatchArgs": {
		"Ops []rpcio.StageOp", "Collect bool", "ClientID uint64",
		"AckEpoch uint64", "AckGen uint64",
	},
	"rpcio.BatchReply": {"Results []rpcio.OpResult", "Delta rpcio.StatsDelta"},
	"rpcio.StatsDelta": {
		"Epoch uint64", "Gen uint64", "Full bool", "Info stage.Info",
		"Queues []stage.QueueStats", "Removed []string",
		"Passthrough int64", "Degraded bool", "DegradedSeconds float64",
	},

	// agg.go: aggregator-tier protocol (wire v2).
	"rpcio.AggAttachArgs": {"Seq uint64"},
	"rpcio.AggInfo": {
		"Seq uint64", "AggID string", "Stages int", "Jobs []string",
	},
	"rpcio.JobGrant":     {"JobID string", "Rate float64"},
	"rpcio.AggRoundArgs": {"Grants []rpcio.JobGrant", "Collect bool"},
	"rpcio.AggJobDelta": {
		"JobID string", "Stages int", "Demand float64",
		"Throughput float64", "WaitP99 float64", "Dropped int64",
		"FailedStages int",
	},
	"rpcio.AggRoundReply": {
		"AggID string", "Stages int", "Jobs []rpcio.AggJobDelta",
		"Borrowed float64", "Repaid float64", "Forgiven float64",
	},

	// Transitively encoded types from other packages.
	"stage.Info": {
		"StageID string", "JobID string", "Hostname string",
		"PID int", "User string",
	},
	"stage.QueueStats": {
		"RuleID string", "Limit float64", "Burst float64",
		"ThroughputRate float64", "DemandRate float64",
		"Total int64", "TotalDemand int64", "Dropped int64",
		"Waiting int", "WaitP50 float64", "WaitP95 float64", "WaitP99 float64",
	},
	"policy.Rule": {
		"ID string", "Match policy.Matcher", "Rate float64",
		"Burst float64", "Action policy.Action",
	},
	"policy.Matcher": {
		"Ops []posix.Op", "Classes []posix.Class", "PathPrefix string",
		"JobID string", "User string",
	},
}

// wireTypes instantiates one value of every registered type, in a fixed
// order matching wireRegistry's keys.
var wireTypes = []any{
	Registration{}, HealthProbe{}, StageHealth{},
	StageOp{}, OpResult{}, BatchArgs{}, BatchReply{}, StatsDelta{},
	AggAttachArgs{}, AggInfo{}, JobGrant{}, AggRoundArgs{},
	AggJobDelta{}, AggRoundReply{},
	stage.Info{}, stage.QueueStats{},
	policy.Rule{}, policy.Matcher{},
}

// exportedFields renders a struct type's exported fields in declaration
// order as "Name Type" strings.
func exportedFields(t reflect.Type) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		out = append(out, f.Name+" "+f.Type.String())
	}
	return out
}

// TestWireRegistryIsAppendOnly pins every wire struct to its registry
// entry: each recorded field must still exist, at the same position,
// with the same name and type, and any field beyond the recorded set
// fails with a reminder to register it. A deliberate schema change
// therefore starts here, and the fingerprint test then demands the
// matching WireVersion bump.
func TestWireRegistryIsAppendOnly(t *testing.T) {
	seen := make(map[string]bool)
	for _, v := range wireTypes {
		rt := reflect.TypeOf(v)
		name := rt.String()
		seen[name] = true
		want, ok := wireRegistry[name]
		if !ok {
			t.Errorf("%s: instantiated in wireTypes but missing from wireRegistry", name)
			continue
		}
		got := exportedFields(rt)
		for i, w := range want {
			if i >= len(got) {
				t.Errorf("%s: registered field %q removed — a wire schema change: update the registry, the codec and codecFieldCoverage, and bump WireVersion", name, w)
				continue
			}
			if got[i] != w {
				t.Errorf("%s: field %d changed from %q to %q — a wire schema change: update the registry, the codec and codecFieldCoverage, and bump WireVersion", name, i, w, got[i])
			}
		}
		for _, g := range got[min(len(want), len(got)):] {
			t.Errorf("%s: new wire field %q — append it to wireRegistry to lock it in", name, g)
		}
	}
	for name := range wireRegistry {
		if !seen[name] {
			t.Errorf("wireRegistry entry %s has no value in wireTypes", name)
		}
	}
}

// TestCodecCoversEveryWireStruct pins the binary codec's per-struct
// field coverage to the registry's locked field lists. Appending a
// field to a wire struct extends the registry (the registry test
// demands it) but not the hand-written codec — this test is what makes
// that forgetting loud: the counts diverge and the failure says to
// extend the Encode/Decode pair and bump WireVersion together.
func TestCodecCoversEveryWireStruct(t *testing.T) {
	for name, fields := range wireRegistry {
		n, ok := codecFieldCoverage[name]
		if !ok {
			t.Errorf("%s: locked in wireRegistry but has no binary codec coverage entry — write its append/read pair in wirecodec.go and record it in codecFieldCoverage", name)
			continue
		}
		if n != len(fields) {
			t.Errorf("%s: registry locks %d fields but the binary codec covers %d — extend the codec's append/read pair, update codecFieldCoverage, and bump WireVersion (with a new wireSchemaFingerprints entry)", name, len(fields), n)
		}
	}
	for name := range codecFieldCoverage {
		if _, ok := wireRegistry[name]; !ok {
			t.Errorf("codecFieldCoverage entry %s is not locked by wireRegistry", name)
		}
	}
}

// wireSchemaFingerprint renders the whole locked schema — every
// registered type's ordered field list, types in sorted order — and
// hashes it. The result changes iff the wire schema changes.
func wireSchemaFingerprint() string {
	names := make([]string, 0, len(wireRegistry))
	for name := range wireRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		b.WriteString(name)
		b.WriteString("{")
		b.WriteString(strings.Join(wireRegistry[name], "; "))
		b.WriteString("}\n")
	}
	return fmt.Sprintf("sha256:%x", sha256.Sum256([]byte(b.String())))
}

// TestWireSchemaFingerprintMatchesVersion ties WireVersion to the
// schema it claims to describe: the fingerprint of the locked registry
// must be the one recorded for the current version. A schema change
// therefore forces two deliberate edits — the registry (registry test)
// and the version/fingerprint pair — before the suite goes green.
func TestWireSchemaFingerprintMatchesVersion(t *testing.T) {
	want, ok := wireSchemaFingerprints[WireVersion]
	if !ok {
		t.Fatalf("WireVersion %d has no entry in wireSchemaFingerprints", WireVersion)
	}
	got := wireSchemaFingerprint()
	if got != want {
		t.Errorf("wire schema fingerprint mismatch:\n  recorded for v%d: %s\n  computed now:    %s\nif the schema deliberately changed, bump WireVersion and record the computed fingerprint", WireVersion, want, got)
	}
}

// TestWireRegistryCoversAnnotatedTypes cross-checks the registry against
// the //lint:wire annotations in this package's sources: every annotated
// struct must be locked by the registry, so the static analyzer and the
// runtime contract can't drift apart.
func TestWireRegistryCoversAnnotatedTypes(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var annotated []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				doc := ts.Doc
				if doc == nil && len(gd.Specs) == 1 {
					doc = gd.Doc
				}
				if hasWireAnnotation(doc) {
					annotated = append(annotated, "rpcio."+ts.Name.Name)
				}
			}
		}
	}
	if len(annotated) == 0 {
		t.Fatal("found no //lint:wire annotations in the package sources")
	}
	for _, name := range annotated {
		if _, ok := wireRegistry[name]; !ok {
			t.Errorf("//lint:wire type %s is not locked by wireRegistry", name)
		}
	}
}

// hasWireAnnotation reports whether a doc comment carries //lint:wire.
func hasWireAnnotation(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == "//lint:wire" || strings.HasPrefix(c.Text, "//lint:wire ") {
			return true
		}
	}
	return false
}
