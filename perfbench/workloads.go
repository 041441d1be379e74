package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"runtime"
	"strconv"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dse"
	evtrace "repro/internal/telemetry/trace"
	"repro/internal/trace"
	"repro/internal/workload"
)

// defaultSeed is the seed the committed fingerprints pin.
const defaultSeed = 1

const (
	spanBytes    = 256 << 20
	sweepWorkers = 2
)

// workloadDef names one benchmark workload. Single-run workloads evaluate
// one design point (Preset × Pattern × Requests); the sweep evaluates the
// reference design space through the dse runner.
type workloadDef struct {
	Name     string
	Preset   string
	Pattern  trace.Pattern
	Requests int
	Sweep    bool
}

// workloads, in BENCHMARK.json order; README.md says why each was chosen.
var workloads = []workloadDef{
	{Name: "c8_fill", Preset: "t3:C8", Pattern: trace.SeqWrite, Requests: 20000},
	{Name: "randread", Preset: "default", Pattern: trace.RandRead, Requests: 100000},
	{Name: "gc_randwrite", Preset: "default", Pattern: trace.RandWrite, Requests: 30000},
	{Name: "dse_sweep", Sweep: true},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// config resolves the workload's platform; the seed drives die jitter.
func (w workloadDef) config(seed uint64) (config.Platform, error) {
	cfg, err := config.Preset(w.Preset)
	cfg.Seed = seed
	return cfg, err
}

// platforms lists the configs a run builds: the single run's one, or each
// sweep point's, in point order.
func (w workloadDef) platforms(seed uint64) ([]config.Platform, error) {
	if !w.Sweep {
		cfg, err := w.config(seed)
		return []config.Platform{cfg}, err
	}
	pts, err := sweepSpace(seed).Enumerate()
	cfgs := make([]config.Platform, len(pts))
	for i, pt := range pts {
		cfgs[i] = pt.Config
	}
	return cfgs, err
}

// spec is the closed-loop host workload: 4 KiB requests over a 256 MiB span.
func (w workloadDef) spec(seed uint64) workload.Spec {
	return workload.Spec{
		Pattern:   w.Pattern,
		BlockSize: trace.DefaultBlockSize,
		SpanBytes: spanBytes,
		Requests:  w.Requests,
		Seed:      seed,
	}
}

// sweepSpace is the reference design question: which topology and host
// interface serve each access pattern best.
func sweepSpace(seed uint64) dse.Space {
	base := config.Default()
	base.Seed = seed
	return dse.Space{
		Base:       base,
		Channels:   []int{2, 4, 8},
		DiesPerWay: []int{1, 2},
		HostIF:     []string{"sata2", "pcie-g2x8"},
		Patterns:   []trace.Pattern{trace.SeqWrite, trace.RandRead, trace.RandWrite},
		SpanBytes:  spanBytes,
		Seed:       seed,
	}
}

// sweepObjectives rank the sweep's Pareto front.
const sweepObjectives = "mbps,latency"

// runOpts varies how one evaluation runs.
type runOpts struct {
	traced   bool   // aggregates-only event tracing on every platform
	parallel bool   // sharded event core at 2 workers
	probe    func() // called after Build and after Run (heap peak), or nil
	// oneWorker runs the sweep on one worker, so its live heap holds one
	// point, not whatever the other worker reached by then.
	oneWorker bool
}

func (o runOpts) atBoundary() {
	if o.probe != nil {
		o.probe()
	}
}

// sample is one timed evaluation of a workload: a single run, or one whole
// sweep with its per-point times summed.
type sample struct {
	setup, run, export, total time.Duration // CPU time
	wall                      time.Duration // wall time from config to export
	runWall                   time.Duration // wall time in Run
	allocBuild, allocRun      uint64        // bytes allocated in Build / Run
	allocTotal                uint64        // bytes allocated from config to export
	kcycles                   float64
	evalWall                  []float64 // seconds per evaluated design point
	attempted, failed         int
	fingerprint               string
	problems                  []string
	results                   []core.Result
}

// fail marks n more operations failed with the reason.
func (s *sample) fail(n int, why string) {
	s.failed += n
	if s.failed > s.attempted {
		s.failed = s.attempted
	}
	s.problems = append(s.problems, why)
}

// evaluate runs the workload once.
func evaluate(w workloadDef, seed uint64, o runOpts) sample {
	if w.Sweep {
		return runSweep(seed, o, buildAndRun)
	}
	return runSingle(w, seed, o)
}

var stallRE = regexp.MustCompile(`\((\d+) completed, (\d+) outstanding\)`)

// failedOps is how many of total host commands an error cost: a stall
// loses its outstanding and never-issued commands, any other error all.
func failedOps(err error, total int) int {
	if m := stallRE.FindStringSubmatch(err.Error()); m != nil {
		if done, perr := strconv.Atoi(m[1]); perr == nil && done <= total {
			return total - done
		}
	}
	return total
}

// invariants checks the seed-independent identities of a run.
func invariants(res core.Result, requests int) []string {
	var bad []string
	if res.Completed != uint64(requests) {
		bad = append(bad, fmt.Sprintf("completed %d of %d submitted", res.Completed, requests))
	}
	sum, mean := res.Stages.SumMeanUS(), res.AllLat.MeanUS
	if math.Abs(sum-mean) > 1e-6*math.Max(1, math.Abs(mean)) {
		bad = append(bad, fmt.Sprintf("stage means sum to %.9g us, latency mean is %.9g us", sum, mean))
	}
	if res.FlashWrites != res.UserPages+res.GCCopies {
		bad = append(bad, fmt.Sprintf("flash writes %d != user pages %d + gc copies %d",
			res.FlashWrites, res.UserPages, res.GCCopies))
	}
	return bad
}

// resultFingerprint hashes the deterministic part of a result: wall-clock
// fields and the tracing report (observation only) are cleared.
func resultFingerprint(res core.Result) (string, error) {
	res = dse.Normalize(res)
	res.Utilization = nil
	doc, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	return sha256Hex(doc), nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runSingle answers one design question end to end: resolve the config,
// build, run, export the Result JSON. It times the CPU of the whole
// process, so the collector's work on other cores counts. A panic fails
// every command.
func runSingle(w workloadDef, seed uint64, o runOpts) (s sample) {
	s.attempted = w.Requests
	defer func() {
		if r := recover(); r != nil {
			s.fail(w.Requests, fmt.Sprintf("panic: %v", r))
		}
	}()
	wall := time.Now()
	a0, t0 := allocBytes(), processCPU()
	cfg, err := w.config(seed)
	if err != nil {
		s.fail(w.Requests, err.Error())
		return s
	}
	if o.parallel {
		cfg.Parallel, cfg.ParallelWorkers = true, 2
	}
	spec := w.spec(seed)
	a1, t1, w1 := allocBytes(), processCPU(), time.Now()
	p, err := core.Build(cfg)
	a2, t2 := allocBytes(), processCPU()
	if err != nil {
		s.fail(w.Requests, "build: "+err.Error())
		return s
	}
	o.atBoundary()
	if o.traced {
		p.EnableTracing(evtrace.Options{})
	}
	a3, t3, w3 := allocBytes(), processCPU(), time.Now()
	res, err := p.Run(spec, core.ModeFull)
	a4, t4 := allocBytes(), processCPU()
	s.runWall = time.Since(w3)
	evalWall := time.Since(w1)
	if err != nil {
		s.fail(failedOps(err, w.Requests), "run: "+err.Error())
		return s
	}
	o.atBoundary() // probes run in the untimed warm-up only
	doc, err := json.Marshal(dse.Normalize(res))
	if err != nil {
		s.fail(w.Requests, "export: "+err.Error())
		return s
	}
	s.fingerprint = sha256Hex(doc)
	a5, t5 := allocBytes(), processCPU()
	s.wall = time.Since(wall)
	if res.Utilization != nil {
		if s.fingerprint, err = resultFingerprint(res); err != nil {
			s.fail(w.Requests, "export: "+err.Error())
		}
	}
	s.setup, s.run, s.export, s.total = t2-t1, t4-t3, t5-t4, t5-t0
	s.allocBuild, s.allocRun, s.allocTotal = a2-a1, a4-a3, a5-a0
	s.kcycles = float64(p.CPU.Clock().CyclesAt(res.SimTime)) / 1000
	s.evalWall = []float64{evalWall.Seconds()}
	s.results = []core.Result{res}
	if bad := invariants(res, w.Requests); len(bad) > 0 {
		s.fail(w.Requests, fmt.Sprint(bad))
	}
	return s
}

// pointEval is one design point's outcome as an evaluator reports it.
type pointEval struct {
	res                  core.Result
	build, run           time.Duration // thread CPU time
	runWall              time.Duration
	allocBuild, allocRun uint64
	kcycles              float64
	err                  error
}

// evaluator computes one sweep point; tests substitute stubs.
type evaluator func(pt dse.Point, o runOpts) pointEval

// buildAndRun is what core.RunWorkload does, split so build and run time
// separately. It times the CPU of its own thread, as sweep workers run
// side by side; the collector's work on other threads shows in the sweep's
// process-CPU total_s, not in its summed setup_s and run_s.
func buildAndRun(pt dse.Point, o runOpts) (e pointEval) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	a0, t0 := allocBytes(), threadCPU()
	p, err := core.Build(pt.Config)
	e.build, e.allocBuild = threadCPU()-t0, allocBytes()-a0
	if err != nil {
		e.err = err
		return e
	}
	o.atBoundary()
	if o.traced {
		p.EnableTracing(evtrace.Options{})
	}
	a1, t1, w1 := allocBytes(), threadCPU(), time.Now()
	e.res, e.err = p.Run(pt.Workload, pt.Mode)
	e.run, e.allocRun, e.runWall = threadCPU()-t1, allocBytes()-a1, time.Since(w1)
	if e.err == nil {
		o.atBoundary()
		e.kcycles = float64(p.CPU.Clock().CyclesAt(e.res.SimTime)) / 1000
	}
	return e
}

// runSweep answers the reference design question: evaluate every point of
// the space on the worker pool, then export the CSV and the Pareto front.
// Its total is the process's CPU time, collector included; wall time at two
// workers on two shared vCPUs spread too widely to gate. Each failed design
// point is one failed operation.
func runSweep(seed uint64, o runOpts, eval evaluator) (s sample) {
	wall, t0 := time.Now(), processCPU()
	a0 := allocBytes()
	pts, err := sweepSpace(seed).Enumerate()
	if err != nil {
		s.attempted = 1
		s.fail(1, err.Error())
		return s
	}
	s.attempted = len(pts)
	per := make([]pointEval, len(pts)) // one writer per index; Run returns after all
	workers := sweepWorkers
	if o.oneWorker {
		workers = 1
	}
	r := dse.Runner{
		Workers: workers,
		Evaluate: func(pt dse.Point) (res core.Result, err error) {
			defer func() {
				if v := recover(); v != nil {
					err = fmt.Errorf("panic: %v", v)
				}
			}()
			e := eval(pt, o)
			per[pt.Index] = e
			return e.res, e.err
		},
	}
	evals, _ := r.Run(context.Background(), pts) // per-point errors are counted below
	tExport := processCPU()                      // the export runs alone
	objs, err := dse.ParseObjectives(sweepObjectives)
	if err != nil {
		s.fail(len(pts), err.Error())
		return s
	}
	var csv, front bytes.Buffer
	if err := dse.WriteCSV(&csv, evals); err != nil {
		s.fail(len(pts), "export: "+err.Error())
		return s
	}
	if err := dse.WriteJSON(&front, dse.Front(evals, objs), objs); err != nil {
		s.fail(len(pts), "export: "+err.Error())
		return s
	}
	s.export = processCPU() - tExport
	s.wall = time.Since(wall)
	s.total, s.allocTotal = processCPU()-t0, allocBytes()-a0
	s.fingerprint = sha256Hex(csv.Bytes())
	if o.traced {
		s.fingerprint = csvFingerprint(evals)
	}
	for i, ev := range evals {
		e := per[i]
		s.setup += e.build
		s.run += e.run
		s.allocBuild += e.allocBuild
		s.allocRun += e.allocRun
		s.kcycles += e.kcycles
		s.evalWall = append(s.evalWall, ev.WallSeconds)
		if ev.Failed() {
			s.fail(1, fmt.Sprintf("point %d: %s", i, ev.Err))
			continue
		}
		if bad := invariants(ev.Result, ev.Point.Workload.Requests); len(bad) > 0 {
			s.fail(1, fmt.Sprintf("point %d: %v", i, bad))
		}
		s.results = append(s.results, ev.Result)
	}
	return s
}

// csvFingerprint hashes the sweep CSV with the observation-only
// utilization columns cleared, so traced and untraced sweeps compare.
func csvFingerprint(evals []dse.Eval) string {
	plain := make([]dse.Eval, len(evals))
	for i, ev := range evals {
		ev.Result.Utilization = nil
		plain[i] = ev
	}
	var b bytes.Buffer
	if err := dse.WriteCSV(&b, plain); err != nil {
		return "export: " + err.Error()
	}
	return sha256Hex(b.Bytes())
}
