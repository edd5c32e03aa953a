// Command padllbench is the repository's end-to-end benchmark. It builds
// PADLL's layers through their own packages, drives one of four
// workloads from a single process in a closed loop for a fixed time,
// checks the outputs, and prints one JSON result line. See README.md for
// the workloads, the metrics and how to read them.
//
//	padllbench --workload meta-passthrough --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a span-traced run (plus the tracing
// overhead against untraced runs around it).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// instance is one built workload: a complete stack ready to be driven.
type instance interface {
	// measure drives the closed loop for d and reports what it did.
	measure(d time.Duration) phase
	// check verifies the outputs after measure; it returns one message
	// per failed check.
	check(p phase) []string
	// summary describes the generated inputs and workload-specific
	// measures of the phase.
	summary(p phase) map[string]any
	// paths reports the shares that show which code paths ran, for
	// comparing a traced run with an untraced one.
	paths(p phase) map[string]float64
	// layers computes the per-layer metrics of a traced instance; base is
	// an untraced phase of the same run.
	layers(p, base phase) map[string]float64
	close()
}

// phase is what one measured closed-loop interval did.
type phase struct {
	ops       int64 // unit operations completed (calls, entries, rounds)
	attempted int64
	failed    int64
	elapsed   time.Duration
	lat       *hist   // per-unit-operation latency, ns
	typical   *hist   // latency of the workload's most common operation, ns
	tail      float64 // the tail quantile of lat that is reported
	heapPeak  uint64
	allocs    uint64
	gcFrac    float64
	errs      []string // first few operation errors
}

func (p phase) opsPerSec() float64 { return float64(p.ops) / p.elapsed.Seconds() }

type workloadDef struct {
	name string
	// prepare, when set, generates inputs the builds share; it runs once,
	// before and outside the timed set-ups.
	prepare func(e *env) error
	build   func(e *env, traced bool) (instance, error)
}

var workloads = []workloadDef{
	{"meta-passthrough", nil, buildMetaPassthrough},
	{"meta-throttled", nil, buildMetaThrottled},
	{"os-walk", prepareOSWalk, buildOSWalk},
	{"fleet-rounds", nil, buildFleetRounds},
}

// env is one invocation's settings and shared inputs.
type env struct {
	seed    uint64
	seconds int
	workdir string
	tree    *walkTree // os-walk's on-disk input
}

// setupRuns is how many times an untraced run builds its workload; the
// reported setup time is the median.
const setupRuns = 3

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() { os.Exit(run()) }

// run is main with an exit code, so deferred clean-up runs on every path.
func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: meta-passthrough, meta-throttled, os-walk or fleet-rounds")
		seed    = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Int("seconds", 10, "seconds of measured load")
		trace   = flag.Int("trace", 0, "1 runs the span-traced per-layer measurement instead of the end-to-end one")
		workdir = flag.String("workdir", ".", "directory for temporary files")
	)
	flag.Parse()
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "padllbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	e := &env{seed: *seed, seconds: *seconds, workdir: *workdir}
	if def.prepare != nil {
		err := def.prepare(e)
		if e.tree != nil {
			defer os.RemoveAll(e.tree.root)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "padllbench: %s: generate inputs: %v\n", def.name, err)
			return 1
		}
	}
	var (
		res     result
		summary map[string]any
		err     error
	)
	if *trace == 1 {
		res, summary, err = runTraced(e, def)
	} else {
		res, summary, err = runPlain(e, def)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "padllbench: %s: %v\n", def.name, err)
		return 1
	}
	summary["workload"] = def.name
	summary["seed"] = e.seed
	if err := printJSON(map[string]any{"summary": summary}); err != nil {
		return 1
	}
	if err := printJSON(res); err != nil {
		return 1
	}
	return 0
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "padllbench: encode result: %v\n", err)
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// measure runs one phase of inst with the heap sampler and runtime
// counters around it.
func measure(inst instance, d time.Duration) phase {
	runtime.GC()
	hs := startHeapSampler(5 * time.Millisecond)
	before := readProc()
	p := inst.measure(d)
	after := readProc()
	p.heapPeak = hs.finish()
	p.allocs = after.allocs - before.allocs
	if cpu := after.totalCP - before.totalCP; cpu > 0 {
		p.gcFrac = (after.gcCPU - before.gcCPU) / cpu
	}
	return p
}

// runPlain is the end-to-end run: build the workload setupRuns times
// (keeping the last), drive it untraced, check it.
func runPlain(e *env, def *workloadDef) (result, map[string]any, error) {
	var setups []float64
	var inst instance
	for i := 0; i < setupRuns; i++ {
		if inst != nil {
			inst.close()
			runtime.GC()
		}
		t0 := time.Now() //lint:allow clockcheck the benchmark measures wall-clock time
		var err error
		inst, err = def.build(e, false)
		if err != nil {
			return result{}, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds()) //lint:allow clockcheck the benchmark measures wall-clock time
	}
	defer inst.close()
	p := measure(inst, time.Duration(e.seconds)*time.Second)
	problems := append(opProblems(p), inst.check(p)...)
	sum := inst.summary(p)
	sum["setup_s_all"] = setups
	sum["latency_samples"] = p.lat.n
	sum["typical_samples"] = p.typical.n
	sum["all_ops_p50_us"] = p.lat.quantile(0.5) / 1e3
	sum["tail_quantile"] = p.tail
	sum["checks_failed"] = problems
	res := result{
		Correct:   len(problems) == 0,
		Attempted: p.attempted,
		Failed:    p.failed,
		Metrics: map[string]metricOut{
			"setup_s":      {median(setups), "s"},
			"ops_per_s":    {p.opsPerSec(), "1/s"},
			"op_p50_us":    {p.typical.quantile(0.50) / 1e3, "us"},
			"op_tail_us":   {p.lat.quantile(p.tail) / 1e3, "us"},
			"heap_peak_mb": {float64(p.heapPeak) / (1 << 20), "MB"},
		},
	}
	return res, sum, nil
}

// runTraced is the per-layer run. A freshly built traced stack is
// measured for half the time, between two untraced quarters on freshly
// built plain stacks; comparing the traced half with the mean of the
// quarters on either side cancels the host's slow drift out of the
// tracing overhead. The per-layer metrics come from the traced half, the
// process counters from the first untraced quarter.
func runTraced(e *env, def *workloadDef) (result, map[string]any, error) {
	quarter := time.Duration(e.seconds) * time.Second / 4
	var problems []string
	var attempted, failed int64
	untraced := func() (phase, map[string]float64, error) {
		inst, err := def.build(e, false)
		if err != nil {
			return phase{}, nil, err
		}
		defer inst.close()
		p := measure(inst, quarter)
		problems = append(problems, opProblems(p)...)
		problems = append(problems, inst.check(p)...)
		attempted, failed = attempted+p.attempted, failed+p.failed
		return p, inst.paths(p), nil
	}

	before, pathsU, err := untraced()
	if err != nil {
		return result{}, nil, err
	}
	runtime.GC()
	traced, err := def.build(e, true)
	if err != nil {
		return result{}, nil, err
	}
	pt := measure(traced, 2*quarter)
	problems = append(problems, opProblems(pt)...)
	problems = append(problems, traced.check(pt)...)
	attempted, failed = attempted+pt.attempted, failed+pt.failed
	pathsT := traced.paths(pt)
	problems = append(problems, comparePaths(pathsU, pathsT)...)
	layers := traced.layers(pt, before)
	sum := traced.summary(pt)
	traced.close()
	runtime.GC()
	after, _, err := untraced()
	if err != nil {
		return result{}, nil, err
	}

	base := (before.opsPerSec() + after.opsPerSec()) / 2
	overhead := 1 - pt.opsPerSec()/base
	layers["trace.overhead_frac"] = overhead
	metrics := make(map[string]metricOut, len(perLayerUnits))
	for name, unit := range perLayerUnits {
		metrics[name] = metricOut{layers[name], unit}
	}
	for name := range layers {
		if _, ok := perLayerUnits[name]; !ok {
			problems = append(problems, "internal: unlisted per-layer metric "+name)
		}
	}
	sum["tracing"] = map[string]any{
		"untraced_ops_per_s": []float64{before.opsPerSec(), after.opsPerSec()},
		"traced_ops_per_s":   pt.opsPerSec(),
		"overhead_frac":      overhead,
		"paths_untraced":     pathsU,
		"paths_traced":       pathsT,
	}
	sum["checks_failed"] = problems
	res := result{
		Correct:   len(problems) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
	}
	return res, sum, nil
}

// perLayerUnits lists every per-layer metric a traced run reports, with
// its unit. A layer that is not on a workload's path reports 0.
var perLayerUnits = map[string]string{
	"client.self_ns_p50":               "ns",
	"interpose.self_ns_p50":            "ns",
	"interpose.self_ns_p99":            "ns",
	"mount.self_ns_p50":                "ns",
	"localfs.ns_p50":                   "ns",
	"mount.backend_calls_per_op":       "count",
	"proc.allocs_per_op":               "count",
	"proc.gc_cpu_frac":                 "frac",
	"stage.wait_p50_us":                "us",
	"stage.wait_p99_us":                "us",
	"stage.admitted":                   "1/s",
	"stage.demand":                     "1/s",
	"stage.admitted_over_demand":       "ratio",
	"control.local_round_us_p50":       "us",
	"control.admitted_over_limit":      "ratio",
	"control.share_tracking":           "ratio",
	"vfs.self_ns_p50":                  "ns",
	"vfs.backend_calls_per_entry":      "count",
	"osfs.ns_p50":                      "ns",
	"interpose.controlled":             "frac",
	"interpose.bypassed":               "frac",
	"rpcio.exchange_us_p50":            "us",
	"rpcio.exchange_us_p95":            "us",
	"rpcio.wire_bytes_per_round":       "B",
	"control.round_self_ms_p50":        "ms",
	"control.collect_calls_per_round":  "count",
	"control.push_calls_per_round":     "count",
	"control.pushes_skipped_per_round": "count",
	"control.collect_failures":         "count",
	"trace.overhead_frac":              "frac",
}

// opProblems turns failed operations into check failures: every workload
// is sized so that no operation fails.
func opProblems(p phase) []string {
	var out []string
	if p.failed > 0 {
		out = append(out, fmt.Sprintf("%d of %d operations failed: %v", p.failed, p.attempted, p.errs))
	}
	if p.ops == 0 {
		out = append(out, "no operation completed")
	}
	return out
}

// comparePaths checks that the traced run took the same code paths as
// the untraced one: every path share must agree within 2% (relative) or
// 0.005 (absolute, for shares near zero).
func comparePaths(u, t map[string]float64) []string {
	var out []string
	keys := make([]string, 0, len(u))
	for k := range u {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		a, b := u[k], t[k]
		d := a - b
		if d < 0 {
			d = -d
		}
		if d > 0.005 && d > 0.02*abs(a) {
			out = append(out, fmt.Sprintf("traced run took other paths: %s %.4f untraced vs %.4f traced", k, a, b))
		}
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// recordErr counts a failed operation and keeps the first few messages.
func (p *phase) recordErr(err error) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err.Error())
	}
}
