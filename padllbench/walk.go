package main

import (
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io/fs"
	"math/rand/v2"
	"os"
	"path"
	"path/filepath"
	"time"

	"padll/internal/clock"
	"padll/internal/interpose"
	"padll/internal/mount"
	"padll/internal/osfs"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/stage"
	"padll/internal/vfs"
)

// The os-walk tree: 32 top dirs x 32 leaf dirs x 4 files of 512 B, on
// the real file system.
const (
	walkTop       = 32
	walkLeaves    = 32
	walkFiles     = 4
	walkFileBytes = 512
)

// walkTree is the generated input of os-walk and what a correct walk of
// it must observe.
type walkTree struct {
	root      string
	entries   int    // entries fs.WalkDir visits, the root included
	pathSum   uint64 // sum of FNV-64a hashes of the visited paths
	bytes     int64  // file bytes a walk reads
	crcSum    uint64 // sum of the CRC-32s of the files' contents
	dirs      int
	files     int
	classKeys int // distinct (op, parent dir) keys the walk presents
}

func pathHash(p string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(p))
	return h.Sum64()
}

// makeWalkTree writes the seeded tree under a fresh directory in workdir.
func makeWalkTree(workdir string, seed uint64) (*walkTree, error) {
	root, err := os.MkdirTemp(workdir, "oswalk-")
	if err != nil {
		return nil, err
	}
	t := &walkTree{root: root}
	rng := rand.New(rand.NewPCG(seed, 0x77616c6b))
	buf := make([]byte, walkFileBytes)
	keys := map[string]bool{}
	visit := func(p string, isDir bool) {
		t.entries++
		t.pathSum += pathHash(p)
		if isDir {
			t.dirs++
			keys["readdir "+path.Dir("/"+p)] = true
		} else {
			t.files++
			keys["open "+path.Dir("/"+p)] = true
		}
		keys["stat "+path.Dir("/"+p)] = true
	}
	visit(".", true)
	for a := 0; a < walkTop; a++ {
		top := fmt.Sprintf("d%02d", a)
		visit(top, true)
		for b := 0; b < walkLeaves; b++ {
			leaf := fmt.Sprintf("%s/l%02d", top, b)
			visit(leaf, true)
			if err := os.MkdirAll(filepath.Join(root, leaf), 0o755); err != nil {
				return t, err
			}
			for f := 0; f < walkFiles; f++ {
				name := fmt.Sprintf("%s/f%d", leaf, f)
				visit(name, false)
				for i := range buf {
					buf[i] = byte(rng.Uint32())
				}
				if err := os.WriteFile(filepath.Join(root, name), buf, 0o644); err != nil {
					return t, err
				}
				t.bytes += walkFileBytes
				t.crcSum += uint64(crc32.ChecksumIEEE(buf))
			}
		}
	}
	t.classKeys = len(keys)
	return t, nil
}

// walkBench is os-walk: fs.WalkDir over DataPlane.FS() on an osfs
// backend, with Info on every entry and ReadFile on every file.
type walkBench struct {
	tree   *walkTree
	router *mount.Router
	stg    *stage.Stage
	shim   *interpose.Shim
	tr     *tracer
	vcalls int64 // vfs calls made while traced (sampled or not)

	walkFS   fs.FS
	info     func(fs.DirEntry) (fs.FileInfo, error)
	readFile func(string) ([]byte, error)

	walks    *hist // per-walk time, ns
	before   queueTotals
	after    queueTotals
	badWalks []string
}

// prepareOSWalk writes the seeded tree once per run. Writing thousands
// of files measures the host's disk, not PADLL, so it stays outside the
// timed set-up; every set-up builds its data plane over the same tree.
func prepareOSWalk(e *env) error {
	var err error
	e.tree, err = makeWalkTree(e.workdir, e.seed)
	return err
}

func buildOSWalk(e *env, traced bool) (instance, error) {
	b := &walkBench{tree: e.tree, walks: newHist()}
	clk := clock.NewReal()
	backend, err := osfs.New(e.tree.root, clk)
	if err != nil {
		b.close()
		return nil, err
	}
	var be posix.FileSystem = backend
	if traced {
		b.tr = newTracer(spanCap)
		be = &spanFS{t: b.tr, l: lOSFS, next: backend}
	}
	b.router, err = mount.NewRouter(mount.Mount{Prefix: "/", FS: be, Controlled: true, Name: "pfs:/"})
	if err != nil {
		b.close()
		return nil, err
	}
	b.stg = stage.New(stage.Info{StageID: "walker@node0#2000", JobID: "walker", Hostname: "node0", PID: 2000, User: "user0"}, clk)
	rule, err := policy.Parse("limit id:passthrough class:metadata rate:unlimited")
	if err != nil {
		b.close()
		return nil, err
	}
	b.stg.ApplyRule(rule)
	var top posix.FileSystem
	b.shim, top = newShim(b.router, b.stg, clk, b.tr)
	info := b.stg.Info()
	v := vfs.New(top, vfs.WithJob(info.JobID, info.User, info.PID))
	if traced {
		sv := &spanVFS{t: b.tr, next: v, sample: func() bool {
			b.vcalls++
			return b.vcalls%traceEvery == 0
		}}
		b.walkFS, b.info, b.readFile = sv, sv.info, sv.ReadFile
	} else {
		b.walkFS, b.info, b.readFile = v, fs.DirEntry.Info, v.ReadFile
	}
	// One walk off the clock fills the kernel's dentry and page caches.
	var p phase
	b.walk(&p, nil, nil)
	if p.failed > 0 || len(b.badWalks) > 0 {
		b.close()
		return nil, fmt.Errorf("warm-up walk failed: %v %v", p.errs, b.badWalks)
	}
	return b, nil
}

// walk runs one fs.WalkDir and verifies what it saw. Each entry's latency
// is the time from the previous entry's completion to this one's, so the
// entries of a walk add up to the walk.
func (b *walkBench) walk(p *phase, lat, files *hist) {
	var entries int
	var pathSum, crcSum uint64
	var nbytes int64
	start := time.Now() //lint:allow clockcheck the benchmark measures wall-clock time
	last := start
	err := fs.WalkDir(b.walkFS, ".", func(name string, d fs.DirEntry, err error) error {
		p.attempted++
		entries++
		pathSum += pathHash(name)
		if err == nil {
			_, err = b.info(d)
		}
		if err == nil && !d.IsDir() {
			var data []byte
			data, err = b.readFile(name)
			nbytes += int64(len(data))
			crcSum += uint64(crc32.ChecksumIEEE(data))
		}
		if err != nil {
			p.recordErr(err)
		} else {
			p.ops++
		}
		now := time.Now() //lint:allow clockcheck the benchmark measures wall-clock time
		if lat != nil {
			lat.record(int64(now.Sub(last)))
			if d != nil && !d.IsDir() {
				files.record(int64(now.Sub(last)))
			}
		}
		last = now
		return nil
	})
	b.walks.record(int64(time.Since(start))) //lint:allow clockcheck the benchmark measures wall-clock time
	t := b.tree
	if err != nil || entries != t.entries || pathSum != t.pathSum || nbytes != t.bytes || crcSum != t.crcSum {
		if len(b.badWalks) < 5 {
			b.badWalks = append(b.badWalks, fmt.Sprintf("walk saw %d entries, %d bytes (want %d, %d); paths match %v, contents match %v, err %v",
				entries, nbytes, t.entries, t.bytes, pathSum == t.pathSum, crcSum == t.crcSum, err))
		}
	}
}

func (b *walkBench) measure(d time.Duration) phase {
	p := phase{lat: newHist(), typical: newHist(), tail: 0.99}
	b.walks = newHist()
	b.badWalks = nil
	b.vcalls = 0
	b.tr.reset()
	b.before = totals(b.stg.Collect())
	start := time.Now() //lint:allow clockcheck the benchmark measures wall-clock time
	deadline := start.Add(d)
	for time.Now().Before(deadline) { //lint:allow clockcheck the benchmark measures wall-clock time
		b.walk(&p, p.lat, p.typical)
	}
	p.elapsed = time.Since(start) //lint:allow clockcheck the benchmark measures wall-clock time
	b.after = totals(b.stg.Collect())
	return p
}

func (b *walkBench) check(p phase) []string {
	out := append([]string(nil), b.badWalks...)
	if n := b.router.OpenFDs(); n != 0 {
		out = append(out, fmt.Sprintf("%d descriptors left open", n))
	}
	if b.walks.n == 0 {
		out = append(out, "no walk completed")
	}
	return out
}

func (b *walkBench) summary(p phase) map[string]any {
	t := b.tree
	return map[string]any{
		"tree_dirs":            t.dirs,
		"tree_files":           t.files,
		"file_bytes":           walkFileBytes,
		"entries_per_walk":     t.entries,
		"classification_keys":  t.classKeys,
		"classification_slots": cacheSlots,
		"walks":                b.walks.n,
		"walk_p50_ms":          b.walks.quantile(0.5) / 1e6,
		"walk_entries_per_s":   p.opsPerSec(),
		"failed_frac":          float64(p.failed) / float64(p.attempted),
	}
}

func (b *walkBench) paths(p phase) map[string]float64 {
	st := b.shim.Stats()
	return map[string]float64{
		"interpose.controlled":      float64(st.Controlled) / float64(st.Intercepted),
		"interpose.bypassed":        float64(st.Bypassed) / float64(st.Intercepted),
		"interpose.calls_per_entry": float64(st.Intercepted) / float64(b.tree.entries*int(b.walks.n+1)),
	}
}

func (b *walkBench) layers(p, base phase) map[string]float64 {
	out := map[string]float64{}
	self, dur := spanStats(b.tr)
	out["vfs.self_ns_p50"] = self[lVFS].quantile(0.5)
	out["interpose.self_ns_p50"] = self[lShim].quantile(0.5)
	out["interpose.self_ns_p99"] = self[lShim].quantile(0.99)
	out["mount.self_ns_p50"] = self[lRouter].quantile(0.5)
	out["osfs.ns_p50"] = dur[lOSFS].quantile(0.5)
	out["mount.backend_calls_per_op"] = ratio(dur[lOSFS].n, dur[lShim].n)
	// Backend calls per sampled vfs call, scaled by vfs calls per entry.
	out["vfs.backend_calls_per_entry"] = ratio(dur[lOSFS].n, dur[lVFS].n) * float64(b.vcalls) / float64(p.attempted)
	out["proc.allocs_per_op"] = float64(base.allocs) / float64(base.ops)
	out["proc.gc_cpu_frac"] = base.gcFrac
	st := b.shim.Stats()
	out["interpose.controlled"] = float64(st.Controlled) / float64(st.Intercepted)
	out["interpose.bypassed"] = float64(st.Bypassed) / float64(st.Intercepted)
	adm, dem := b.after.admitted-b.before.admitted, b.after.demand-b.before.demand
	out["stage.admitted"] = float64(adm) / p.elapsed.Seconds()
	out["stage.demand"] = float64(dem) / p.elapsed.Seconds()
	out["stage.admitted_over_demand"] = ratio(uint64(adm), uint64(dem))
	return out
}

func (b *walkBench) close() {
	if b.stg != nil {
		b.stg.Close()
	}
}
