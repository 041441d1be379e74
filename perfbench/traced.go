package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/dse"
	"repro/internal/nand"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// perLayer lists the traced run's metrics, in report order. BENCHMARK.json
// declares the same set; TestCatalogMatchesBenchmarkJSON keeps them equal.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"core.build_s", "s", "lower"},
		{"core.run_s", "s", "lower"},
		{"dse.export_s", "s", "lower"},
		{"dse.eval_p50_s", "s", "lower"},
		{"dse.eval_p90_s", "s", "lower"},
		{"dse.points", "count", "higher"},
		{"dse.worker_busy_frac", "ratio", "higher"},
		{"trace_overhead", "ratio", "lower"},
		{"profile.samples", "count", "higher"},
	}
	for _, b := range buckets {
		defs = append(defs, metricDef{shareName(b), "ratio", "lower"})
	}
	return append(defs,
		metricDef{"sim.events", "count", "lower"},
		metricDef{"hostif.commands", "count", "higher"},
		metricDef{"nand.page_reads", "count", "lower"},
		metricDef{"nand.page_programs", "count", "lower"},
		metricDef{"nand.erases", "count", "lower"},
		metricDef{"ftl.gc_copies", "count", "lower"},
		metricDef{"ftl.waf", "ratio", "lower"},
		metricDef{"nand.busy_frac", "ratio", "higher"},
		metricDef{"ctrl.onfi_busy_frac", "ratio", "higher"},
		metricDef{"dram.busy_frac", "ratio", "higher"},
		metricDef{"ecc.busy_frac", "ratio", "higher"},
		metricDef{"cpu.busy_frac", "ratio", "higher"},
		metricDef{"amba.busy_frac", "ratio", "higher"},
		metricDef{"hostif.busy_frac", "ratio", "higher"},
		metricDef{"ftl.gc_frac", "ratio", "lower"},
		metricDef{"runtime.alloc_mb_build", "MiB", "lower"},
		metricDef{"runtime.alloc_mb_run", "MiB", "lower"},
		metricDef{"runtime.gc_cycles", "count", "lower"},
		metricDef{"runtime.gc_pause_ms", "ms", "lower"},
		metricDef{"nand.newdie_ms", "ms", "lower"},
		metricDef{"dram.access_ns_per_kib", "ns", "lower"},
		metricDef{"sim.ns_per_event", "ns", "lower"},
		metricDef{"workload.next_ns", "ns", "lower"},
		metricDef{"sim.par_speedup", "ratio", "higher"},
	)
}()

// shareName is the self-share metric of a profile bucket.
func shareName(b string) string {
	switch b {
	case bucketGC:
		return "runtime.gc_share"
	case bucketAlloc:
		return "runtime.alloc_share"
	case bucketOther:
		return "runtime.other_share"
	}
	return b + ".self_share"
}

// gcStats is the runtime's collection work over one evaluation.
type gcStats struct {
	cycles  uint32
	pauseNS uint64
}

func readGC() gcStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcStats{ms.NumGC, ms.PauseTotalNs}
}

// tracedRun splits host cost across the repo's modules. Untraced
// evaluations give the baseline total_s; traced ones (event tracing on,
// CPU profile on) give the spans, the profile shares and the modelled
// work; then the benchmark times calls into single layers directly.
func tracedRun(w workloadDef, seed uint64, d time.Duration) (report, error) {
	r := report{workload: w.Name, seed: seed, mode: "traced"}
	warm := evaluate(w, seed, runOpts{})
	plain := measureLoop(w, seed, d/2, 2, runOpts{}, nil)

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return r, fmt.Errorf("cpu profile: %w", err)
	}
	var tr []sample
	var gcs []gcStats
	for start := time.Now(); len(tr) < 2 || time.Since(start) < d/2; {
		runtime.GC()
		g0 := readGC()
		tr = append(tr, evaluate(w, seed, runOpts{traced: true}))
		g1 := readGC()
		gcs = append(gcs, gcStats{g1.cycles - g0.cycles, g1.pauseNS - g0.pauseNS})
	}
	pprof.StopCPUProfile()
	r.tally(w, append(append([]sample{warm}, plain...), tr...))

	secs := func(ss []sample, f func(sample) time.Duration) []float64 {
		return collect(ss, func(s sample) float64 { return f(s).Seconds() })
	}
	r.add("core.build_s", "s", secs(tr, func(s sample) time.Duration { return s.setup }))
	r.add("core.run_s", "s", secs(tr, func(s sample) time.Duration { return s.run }))
	r.add("dse.export_s", "s", secs(tr, func(s sample) time.Duration { return s.export }))
	var evals []float64
	busy := collect(tr, func(s sample) float64 {
		var sum float64
		for _, e := range s.evalWall {
			sum += e
		}
		evals = append(evals, s.evalWall...)
		workers := 1.0
		if w.Sweep {
			workers = sweepWorkers
		}
		return sum / (workers * s.wall.Seconds())
	})
	r.add("dse.eval_p50_s", "s", []float64{percentile(evals, 0.50)})
	r.add("dse.eval_p90_s", "s", []float64{percentile(evals, 0.90)})
	r.add("dse.points", "count", []float64{float64(len(evals))})
	r.add("dse.worker_busy_frac", "ratio", busy)
	plainTotal := median(secs(plain, func(s sample) time.Duration { return s.total }))
	r.add("trace_overhead", "ratio", []float64{median(secs(tr, func(s sample) time.Duration { return s.total })) / plainTotal})

	stacks, err := parseProfile(prof.Bytes())
	if err != nil {
		return r, fmt.Errorf("cpu profile: %w", err)
	}
	shares, n := bucketShares(stacks)
	r.add("profile.samples", "count", []float64{float64(n)})
	for _, b := range buckets {
		r.add(shareName(b), "ratio", []float64{shares[b]})
	}

	addModelled(&r, tr[len(tr)-1].results)
	r.add("runtime.alloc_mb_build", "MiB", collect(tr, func(s sample) float64 { return float64(s.allocBuild) / mib }))
	r.add("runtime.alloc_mb_run", "MiB", collect(tr, func(s sample) float64 { return float64(s.allocRun) / mib }))
	gcCycles, gcPause := make([]float64, len(gcs)), make([]float64, len(gcs))
	for i, g := range gcs {
		gcCycles[i], gcPause[i] = float64(g.cycles), float64(g.pauseNS)/1e6
	}
	r.add("runtime.gc_cycles", "count", gcCycles)
	r.add("runtime.gc_pause_ms", "ms", gcPause)

	if err := addDirect(&r, w, seed); err != nil {
		return r, err
	}
	r.note("profile shares cover the traced evaluations only; stdlib leaves go to the nearest calling repo module")
	if w.Sweep {
		r.note("dse.eval_* cover %d sweep points; alloc split sums per-point deltas, which overlap across the %d workers",
			len(evals), sweepWorkers)
		r.note("sim.par_speedup is measured on the sweep's largest point (8 channels, 2 dies per way)")
	} else {
		r.note("dse.eval_* and dse.worker_busy_frac treat each run as one design point on one worker")
		r.note("dse.export_s times dse.Normalize plus the Result JSON export")
	}
	return r, nil
}

// percentile is the nearest-rank percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// addModelled reports the modelled work of one evaluation: counts summed
// and busy fractions averaged over its design points.
func addModelled(r *report, results []core.Result) {
	var events, cmds, reads, progs, erases, gc, user float64
	var nandU, bus, dr, ec, cp, ahb, host, gcFrac float64
	for _, res := range results {
		events += float64(res.Events)
		cmds += float64(res.Completed)
		reads += float64(res.FlashReads)
		progs += float64(res.FlashWrites)
		erases += float64(res.Erases)
		gc += float64(res.GCCopies)
		user += float64(res.UserPages)
		if u := res.Utilization; u != nil {
			nandU += u.NANDUtil
			bus += u.BusUtil
			dr += u.DRAMUtil
			ec += u.ECCUtil
			cp += u.CPUUtil
			ahb += u.AHBUtil
			host += u.HostUtil
			gcFrac += u.GCFrac
		}
	}
	n := float64(max(len(results), 1))
	waf := 1.0
	if user > 0 {
		waf = progs / user
	}
	one := func(name, unit string, v float64) { r.add(name, unit, []float64{v}) }
	one("sim.events", "count", events)
	one("hostif.commands", "count", cmds)
	one("nand.page_reads", "count", reads)
	one("nand.page_programs", "count", progs)
	one("nand.erases", "count", erases)
	one("ftl.gc_copies", "count", gc)
	one("ftl.waf", "ratio", waf)
	one("nand.busy_frac", "ratio", nandU/n)
	one("ctrl.onfi_busy_frac", "ratio", bus/n)
	one("dram.busy_frac", "ratio", dr/n)
	one("ecc.busy_frac", "ratio", ec/n)
	one("cpu.busy_frac", "ratio", cp/n)
	one("amba.busy_frac", "ratio", ahb/n)
	one("hostif.busy_frac", "ratio", host/n)
	one("ftl.gc_frac", "ratio", gcFrac/n)
}

// repeat times batches of op until budget has passed (at least 3 batches)
// and returns the median thread CPU time per op in nanoseconds.
func repeat(batch int, budget time.Duration, op func()) float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var per []float64
	for start := time.Now(); len(per) < 3 || time.Since(start) < budget; {
		t := threadCPU()
		for i := 0; i < batch; i++ {
			op()
		}
		per = append(per, float64((threadCPU()-t).Nanoseconds())/float64(batch))
	}
	return median(per)
}

const directBudget = 300 * time.Millisecond

// addDirect times calls into single layers' public functions at the
// workload's sizes, plus the serial/sharded run-time ratio.
func addDirect(r *report, w workloadDef, seed uint64) error {
	geo, tim := nand.DefaultGeometry(), nand.ProfileExplore()
	k := sim.NewKernel()
	var dieErr error
	ns := repeat(16, directBudget, func() {
		d, err := nand.NewDie(k, 0, geo, tim, sim.NewRNG(seed))
		if err != nil {
			dieErr = err
		}
		runtime.KeepAlive(d)
	})
	if dieErr != nil {
		return fmt.Errorf("nand.NewDie: %w", dieErr)
	}
	r.add("nand.newdie_ms", "ms", []float64{ns / 1e6})

	dramNS, err := timeDRAM()
	if err != nil {
		return err
	}
	r.add("dram.access_ns_per_kib", "ns", []float64{dramNS})
	r.add("sim.ns_per_event", "ns", []float64{timeKernel()})

	spec := w.spec(seed)
	if w.Sweep {
		pt, err := largestPoint(seed)
		if err != nil {
			return err
		}
		spec = pt.Workload
	}
	nextNS, err := timeNext(spec)
	if err != nil {
		return err
	}
	r.add("workload.next_ns", "ns", []float64{nextNS})

	speedup, err := parSpeedup(w, seed)
	if err != nil {
		return err
	}
	r.add("sim.par_speedup", "ratio", []float64{speedup})
	return nil
}

// timeDRAM times 4 KiB dram.Buffer.Access calls, alternating writes and
// reads, on a standalone kernel; ns per KiB transferred.
func timeDRAM() (float64, error) {
	k := sim.NewKernel()
	b, err := dram.New(k, 0, dram.DDR2_800x16(64<<20))
	if err != nil {
		return 0, fmt.Errorf("dram.New: %w", err)
	}
	const batch, bytes = 1024, trace.DefaultBlockSize
	done := func(start, end sim.Time) {}
	var addr int64
	var accErr error
	ns := repeat(1, directBudget, func() {
		for i := 0; i < batch; i++ {
			if err := b.Access(i%2 == 0, addr, bytes, done); err != nil {
				accErr = err
			}
			addr += bytes
		}
		k.RunAll()
	})
	if accErr != nil {
		return 0, fmt.Errorf("dram.Access: %w", accErr)
	}
	return ns / (batch * bytes / 1024), nil
}

// timeKernel times Schedule plus dispatch on a standalone kernel holding a
// fixed 256 pending events; ns per event.
func timeKernel() float64 {
	const depth, events = 256, 1 << 16
	k := sim.NewKernel()
	var fired int
	var x uint64 = 1
	var tick func()
	tick = func() {
		fired++
		if fired+depth <= events {
			x = x*6364136223846793005 + 1442695040888963407
			k.Schedule(sim.Time(1+x>>54), tick)
		}
	}
	return repeat(1, directBudget, func() {
		fired = 0
		for i := 0; i < depth; i++ {
			k.Schedule(sim.Time(i+1), tick)
		}
		k.RunAll()
	}) / events
}

// timeNext times the workload generator's Next over its whole stream.
func timeNext(spec workload.Spec) (float64, error) {
	gen, err := spec.Generator()
	if err != nil {
		return 0, fmt.Errorf("workload generator: %w", err)
	}
	return repeat(1, directBudget, func() {
		gen.Reset()
		for {
			if _, ok := gen.Next(); !ok {
				break
			}
		}
	}) / float64(spec.Requests), nil
}

// parSpeedup is serial run time over run time on the sharded core at 2
// workers, in wall time since the shards run on other threads. Serial and
// sharded runs alternate in one process, so host drift hits both alike.
// The sweep times its largest point.
func parSpeedup(w workloadDef, seed uint64) (float64, error) {
	runWall := func(parallel bool) (time.Duration, error) {
		runtime.GC()
		if !w.Sweep {
			s := runSingle(w, seed, runOpts{parallel: parallel})
			if s.failed > 0 {
				return 0, fmt.Errorf("parallel=%v: %v", parallel, s.problems)
			}
			return s.runWall, nil
		}
		pt, err := largestPoint(seed)
		if err != nil {
			return 0, err
		}
		pt.Config.Parallel, pt.Config.ParallelWorkers = parallel, 2
		e := buildAndRun(pt, runOpts{})
		if e.err != nil {
			return 0, fmt.Errorf("point %s parallel=%v: %w", pt.Describe(), parallel, e.err)
		}
		return e.runWall, nil
	}
	reps := 3
	if w.Sweep {
		reps = 7 // the point runs in tens of milliseconds
	}
	var serial, par []float64
	for i := 0; i < reps; i++ {
		for _, parallel := range []bool{false, true} {
			d, err := runWall(parallel)
			if err != nil {
				return 0, err
			}
			if parallel {
				par = append(par, d.Seconds())
			} else {
				serial = append(serial, d.Seconds())
			}
		}
	}
	return median(serial) / median(par), nil
}

// largestPoint is the sweep point with the most dies, on the fast host
// interface, writing randomly.
func largestPoint(seed uint64) (dse.Point, error) {
	pts, err := sweepSpace(seed).Enumerate()
	if err != nil {
		return dse.Point{}, err
	}
	for _, pt := range pts {
		c := pt.Config
		if c.Channels == 8 && c.DiesPerWay == 2 && c.HostIF == "pcie-g2x8" && pt.Workload.Pattern == trace.RandWrite {
			return pt, nil
		}
	}
	return dse.Point{}, fmt.Errorf("sweep has no 8-channel pcie point")
}
