package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// metricDef is one reported metric's name, unit and better direction.
type metricDef struct{ Name, Unit, Better string }

// endToEnd lists the timed run's metrics, in report order. BENCHMARK.json
// declares the same set; TestCatalogMatchesBenchmarkJSON keeps them equal.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"total_s", "s", "lower"},
	{"kcps", "kcycles/s", "higher"},
	{"points_per_s", "1/s", "higher"},
	{"alloc_mb", "MiB", "lower"},
	{"heap_peak_mb", "MiB", "lower"},
}

const mib = 1 << 20

// minTimedSamples is the fewest timed evaluations a run takes, however
// long each one is.
const minTimedSamples = 3

// metric is one reported figure: the median of N samples with quartiles.
type metric struct {
	Name, Unit string
	Value      float64
	Q1, Q3     float64
	N          int
}

// report is one workload's outcome in either mode.
type report struct {
	workload          string
	seed              uint64
	mode              string
	attempted, failed int
	problems          []string
	metrics           []metric
	notes             []string
}

func (r *report) add(name, unit string, xs []float64) {
	q1, med, q3 := quartiles(xs)
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: med, Q1: q1, Q3: q3, N: len(xs)})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// tally counts every evaluation's operations and checks its correctness:
// invariant or fingerprint failures fail all of that evaluation's
// operations. Fingerprints apply at defaultSeed only.
func (r *report) tally(w workloadDef, ss []sample) {
	for _, s := range ss {
		failed := s.failed
		if failed == 0 {
			if err := checkFingerprint(w.Name, r.seed, s.fingerprint); err != nil {
				failed = s.attempted
				s.problems = append(s.problems, err.Error())
			}
		}
		r.attempted += s.attempted
		r.failed += failed
		for _, p := range s.problems {
			if len(r.problems) < 8 {
				r.problems = append(r.problems, p)
			}
		}
	}
}

// checkFingerprint compares an evaluation's output hash with the committed
// one. Other seeds have no committed hash and pass.
func checkFingerprint(workload string, seed uint64, got string) error {
	if seed != defaultSeed {
		return nil
	}
	want, ok := fingerprints[workload]
	if !ok {
		return fmt.Errorf("no committed fingerprint for %s", workload)
	}
	if got != want {
		return fmt.Errorf("fingerprint %s, committed %s: simulated statistics changed", got, want)
	}
	return nil
}

// quartiles returns the first quartile, median and third quartile of xs
// by the exclusive method of Python's statistics.quantiles; with fewer than
// three values the quartiles clamp to the extremes instead of extrapolating.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := int(pos)
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	n := len(s)
	med = s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return at(0.25), med, at(0.75)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// collect maps every sample through f.
func collect(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// allocBytes is the Go runtime's cumulative heap allocation.
func allocBytes() uint64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

// heapPeak records the largest live heap that any collection cycle marked
// while it watches: every cycle the runtime runs on its own, and a forced
// one at each Build and Run boundary, where a large platform is whole but
// no cycle may fall on its own. Each workload runs in its own process, so
// no other workload's heap can reach the figure.
type heapPeak struct {
	bytes    atomic.Uint64
	watching atomic.Bool
}

// gcSentinel is garbage as soon as it is made, so its finalizer runs once
// after every collection cycle.
type gcSentinel struct{ h *heapPeak }

// watch records the live heap after every collection cycle until stop.
func (h *heapPeak) watch() {
	h.watching.Store(true)
	h.arm()
}

func (h *heapPeak) stop() { h.watching.Store(false) }

func (h *heapPeak) arm() {
	runtime.SetFinalizer(&gcSentinel{h}, func(s *gcSentinel) {
		if s.h.watching.Load() {
			s.h.record()
			s.h.arm()
		}
	})
}

// probe collects garbage and records the live heap.
func (h *heapPeak) probe() {
	runtime.GC()
	h.record()
}

func (h *heapPeak) record() {
	s := [1]metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s[:])
	for v := s[0].Value.Uint64(); ; {
		old := h.bytes.Load()
		if v <= old || h.bytes.CompareAndSwap(old, v) {
			return
		}
	}
}

// measureLoop evaluates the workload back to back from a collected heap
// until d has passed and at least minN evaluations are done. A non-nil
// speed probe runs its rounds between the evaluations.
func measureLoop(w workloadDef, seed uint64, d time.Duration, minN int, o runOpts, sp *speedProbe) []sample {
	var out []sample
	for start := time.Now(); len(out) < minN || time.Since(start) < d; {
		runtime.GC()
		sp.maybe()
		out = append(out, evaluate(w, seed, o))
	}
	return out
}

// setupBatch is the least CPU time one setup_s sample spans.
const setupBatch = 50 * time.Millisecond

// standaloneSetups times standalone builds of a workload's platforms for
// budget, and at least three samples: the single run's platform, or every
// design point's platform on the sweep, one after another on one thread. A
// sample is the mean time of such a pass over a batch of passes lasting
// about setupBatch, so the collection cycles that cheap builds set off fall
// evenly on the samples.
func standaloneSetups(w workloadDef, seed uint64, budget time.Duration, sp *speedProbe) ([]float64, error) {
	cfgs, err := w.platforms(seed)
	if err != nil {
		return nil, err
	}
	var out []float64
	batch := 1
	for start := time.Now(); len(out) < 3 || time.Since(start) < budget; {
		runtime.GC()
		sp.maybe()
		t := processCPU()
		for i := 0; i < batch; i++ {
			for _, cfg := range cfgs {
				p, err := core.Build(cfg)
				if err != nil {
					return nil, err
				}
				runtime.KeepAlive(p)
			}
		}
		d := processCPU() - t
		if len(out) == 0 && batch == 1 && d < setupBatch {
			// A cheap first pass sizes the batch and is not a sample.
			batch = int(setupBatch/max(d, time.Microsecond)) + 1
			continue
		}
		out = append(out, d.Seconds()/float64(batch))
	}
	return out, nil
}

// timed measures the end-to-end metrics with all observation off. One
// untimed warm-up evaluation lets the heap grow to size and adds forced
// collections at its Build and Run boundaries to the live-heap peak; the
// timed evaluations follow. A single run's peak also covers every cycle of
// the timed evaluations. The sweep's peak comes from its warm-up alone,
// run on one worker: with two, the live heap depends on which points
// happen to overlap, and the peak moved from 17 to 24 MiB between sweeps
// of one seed. Host times are CPU seconds scaled by the speed probe's
// rounds, which run between the evaluations.
func timed(w workloadDef, seed uint64, d time.Duration) (report, error) {
	r := report{workload: w.Name, seed: seed, mode: "timed"}
	sp, err := newSpeedProbe()
	if err != nil {
		return r, fmt.Errorf("speed probe: %w", err)
	}
	defer sp.close() // a failed unmap only leaks the buffers until exit
	var peak heapPeak
	runtime.GC()
	sp.maybe()
	peak.watch()
	warm := evaluate(w, seed, runOpts{probe: peak.probe, oneWorker: w.Sweep})
	if w.Sweep {
		peak.stop()
	}
	loop := d * 3 / 4 // the last quarter times standalone builds for setup_s
	ss := measureLoop(w, seed, loop, minTimedSamples, runOpts{}, sp)
	peak.stop()
	r.tally(w, append([]sample{warm}, ss...))

	setups, err := standaloneSetups(w, seed, d-loop, sp)
	if err != nil {
		r.failed, r.problems = r.attempted, append(r.problems, "standalone build: "+err.Error())
	}
	runtime.GC()
	sp.round() // at least one round after the last evaluation
	k := sp.scale()
	scaled := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * k
		}
		return out
	}
	runs := collect(ss, func(s sample) float64 { return s.run.Seconds() })
	totals := collect(ss, func(s sample) float64 { return s.total.Seconds() })
	r.add("setup_s", "s", scaled(setups))
	r.add("run_s", "s", scaled(runs))
	r.add("total_s", "s", scaled(totals))
	r.add("kcps", "kcycles/s", collect(ss, func(s sample) float64 { return s.kcycles / (s.run.Seconds() * k) }))
	r.add("points_per_s", "1/s", collect(ss, func(s sample) float64 {
		return float64(len(s.evalWall)) / (s.total.Seconds() * k)
	}))
	r.add("alloc_mb", "MiB", collect(ss, func(s sample) float64 { return float64(s.allocTotal) / mib }))
	r.add("heap_peak_mb", "MiB", []float64{float64(peak.bytes.Load()) / mib})
	q1, rm, q3 := quartiles(sp.rounds)
	r.note("host times are process CPU seconds x %.6g, the probe's nominal %g s over its median round %.6g s (q1 %.6g, q3 %.6g, %d rounds)",
		k, probeNominal, rm, q1, q3, len(sp.rounds))
	r.note("unscaled medians: setup_s %.6g s, run_s %.6g s, total_s %.6g s; wall total_s %.6g s",
		median(setups), median(runs), median(totals), median(collect(ss, func(s sample) float64 { return s.wall.Seconds() })))
	if w.Sweep {
		r.note("setup_s is one pass of standalone builds of every point; run_s sums each point's worker-thread CPU; total_s is the whole process's CPU")
		r.note("kcps is the sweep's simulated kilo-cycles over its summed run_s")
	} else {
		r.note("points_per_s counts the run as one design point: 1/total_s")
	}
	return r, nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r report) result() result {
	out := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricJSON, len(r.metrics)),
	}
	for _, m := range r.metrics {
		out.Metrics[m.Name] = metricJSON{Value: m.Value, Unit: m.Unit}
	}
	return out
}

// print writes the human-readable report, then the result line.
func (r report) print(w io.Writer, host hostContext) error {
	hj, err := json.Marshal(host)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# workload=%s seed=%d mode=%s\n# host %s\n", r.workload, r.seed, r.mode, hj)
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-28s %14.6g %-10s q1=%.6g q3=%.6g n=%d\n", m.Name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
	}
	frac := 1.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-28s %14.6g %-10s (%d of %d operations)\n", "failed_frac", frac, "ratio", r.failed, r.attempted)
	for _, n := range r.notes {
		fmt.Fprintf(w, "# note: %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "# FAILED: %s\n", p)
	}
	line, err := json.Marshal(r.result())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
