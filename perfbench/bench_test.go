package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/trace"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		want   string
		frames []string
	}{
		{bucketAlloc, []string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.makeslice",
			"repro/internal/nand.NewDie", "repro/internal/core.Build", "main.runSingle"}},
		{bucketGC, []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}},
		{bucketGC, []string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc1",
			"runtime.gcAssistAlloc", "runtime.mallocgc", "runtime.newobject", "repro/internal/sim.(*Kernel).alloc"}},
		{bucketGC, []string{"runtime.(*sweepLocked).sweep", "runtime.sweepone", "runtime.bgsweep"}},
		{bucketGC, []string{"runtime._GC"}},
		{bucketOther, []string{"runtime._System"}},
		{"sim", []string{"container/heap.down", "container/heap.Fix", "repro/internal/sim.(*Kernel).Run"}},
		{"dram", []string{"runtime.memmove", "repro/internal/dram.(*Buffer).serve", "repro/internal/sim.(*Kernel).Run"}},
		{"ctrl", []string{"internal/runtime/maps.(*Map).getWithKeySmall", "runtime.mapaccess2",
			"repro/internal/ctrl.(*Controller).Read"}},
		{"telemetry", []string{"repro/internal/telemetry/trace.(*Tracer).Busy", "repro/internal/nand.(*Die).begin"}},
		{"workload", []string{"repro/internal/trace.(*Reader).Next"}},
		{"core", []string{"repro/internal/config.Platform.Validate", "repro/internal/core.Build"}},
		{bucketBench, []string{"encoding/json.(*encodeState).marshal", "encoding/json.Marshal", "main.runSingle"}},
		{bucketBench, []string{"crypto/sha256.block", "repro/perfbench.sha256Hex"}},
		{bucketOther, []string{"runtime.futex", "runtime.notesleep", "runtime.mPark", "runtime.schedule"}},
		{bucketOther, nil},
	}
	for _, c := range cases {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
	var stacks []stackSample
	for i, c := range cases {
		stacks = append(stacks, stackSample{frames: c.frames, count: int64(i + 1)})
	}
	shares, n := bucketShares(stacks)
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if n != int64(len(cases)*(len(cases)+1)/2) || math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v over %d samples", sum, n)
	}
	if len(shares) != len(buckets) {
		t.Errorf("%d shares for %d buckets", len(shares), len(buckets))
	}
}

var sink uint64

func TestParseProfileOfThisProcess(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	x := uint64(1) // a local, so the race detector adds no calls to the loop
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1
		}
	}
	sink = x
	pprof.StopCPUProfile()
	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	shares, n := bucketShares(stacks)
	if n == 0 {
		t.Skip("no samples taken")
	}
	if shares[bucketBench] < 0.5 {
		t.Errorf("spin loop in this package got bench share %v of %d samples", shares[bucketBench], n)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("bad metric name or unit: %q %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("bad workload name %q", w.Name)
		}
	}
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].Name)
		}
	}
}

func TestPerturbedResultFailsFingerprint(t *testing.T) {
	w := workloadDef{Name: "tiny", Preset: "default", Pattern: trace.RandWrite, Requests: 300}
	s := runSingle(w, defaultSeed, runOpts{})
	if s.failed != 0 || len(s.results) != 1 {
		t.Fatalf("tiny run failed: %v", s.problems)
	}
	fingerprints[w.Name] = s.fingerprint
	t.Cleanup(func() { delete(fingerprints, w.Name) })
	if err := checkFingerprint(w.Name, defaultSeed, s.fingerprint); err != nil {
		t.Fatalf("unperturbed run: %v", err)
	}
	res := s.results[0]
	res.GCCopies++
	bad, err := resultFingerprint(res)
	if err != nil {
		t.Fatal(err)
	}
	if checkFingerprint(w.Name, defaultSeed, bad) == nil {
		t.Error("perturbed result passed the fingerprint check")
	}
	if checkFingerprint(w.Name, defaultSeed+1, bad) != nil {
		t.Error("fingerprints must be skipped on other seeds")
	}
	if len(invariants(res, w.Requests)) == 0 {
		t.Error("flash writes != user pages + gc copies went unnoticed")
	}
	perturbed := s
	perturbed.fingerprint = bad
	r := report{seed: defaultSeed}
	r.tally(w, []sample{s, perturbed})
	if r.attempted != 600 || r.failed != 300 {
		t.Errorf("tally: %d of %d failed, want 300 of 600", r.failed, r.attempted)
	}
}

func TestStubEvaluatorFailedFrac(t *testing.T) {
	stub := func(pt dse.Point, o runOpts) pointEval {
		switch {
		case pt.Index == 7:
			panic("model fault")
		case pt.Index%3 == 0:
			return pointEval{err: errors.New("stub failure")}
		}
		return pointEval{res: core.Result{Completed: uint64(pt.Workload.Requests)}, build: time.Millisecond, run: time.Millisecond}
	}
	s := runSweep(defaultSeed, runOpts{}, stub)
	if s.attempted != 36 || s.failed != 13 {
		t.Fatalf("failed %d of %d points, want 13 of 36: %v", s.failed, s.attempted, s.problems)
	}
	r := report{seed: defaultSeed + 1}
	r.tally(workloadDef{Name: "dse_sweep", Sweep: true}, []sample{s})
	if got := r.result(); got.Correct || float64(got.Failed)/float64(got.Attempted) != 13.0/36 {
		t.Errorf("result %+v, want failed_frac 13/36", got)
	}
}

func TestHeapPeakSeesEveryCycle(t *testing.T) {
	var h heapPeak
	runtime.GC()
	h.watch()
	defer h.stop()
	live := make([]byte, 64*mib)
	runtime.GC() // not a probe: the watcher must see the cycle by itself
	runtime.KeepAlive(live)
	for deadline := time.Now().Add(5 * time.Second); h.bytes.Load() < 64*mib; {
		if time.Now().After(deadline) {
			t.Fatalf("peak %d bytes after a cycle with 64 MiB live", h.bytes.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFailedOps(t *testing.T) {
	stall := errors.New("core: simulation stalled (19 completed, 32 outstanding)")
	if got := failedOps(stall, 200); got != 181 {
		t.Errorf("stall: %d failed, want 181", got)
	}
	if got := failedOps(errors.New("config: bad"), 200); got != 200 {
		t.Errorf("error: %d failed, want 200", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
}

func TestSpeedProbe(t *testing.T) {
	sp, err := newSpeedProbe()
	if err != nil {
		t.Fatal(err)
	}
	sp.maybe() // no round yet: runs a burst
	if len(sp.rounds) != probeBurst {
		t.Fatalf("first maybe ran %d rounds, want %d", len(sp.rounds), probeBurst)
	}
	sp.maybe() // just ran: no round
	if len(sp.rounds) != probeBurst {
		t.Fatalf("maybe right after a round ran %d more", len(sp.rounds)-probeBurst)
	}
	sp.rounds = nil
	if allocs := testing.AllocsPerRun(5, sp.round); allocs > 1 { // the append of the round's time
		t.Errorf("a round allocates %v times", allocs)
	}
	if k := sp.scale(); !(k > 0) || math.IsInf(k, 0) {
		t.Errorf("scale %v", k)
	}
	if err := sp.close(); err != nil {
		t.Errorf("close: %v", err)
	}
	var none *speedProbe
	none.maybe() // a nil probe is a no-op
}
