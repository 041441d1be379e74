package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
	evtrace "repro/internal/telemetry/trace"
	"repro/internal/trace"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the sharded-core golden file")

// parallelGolden pins the sharded core's outcome per determinism case: the
// SHA-256 of the scrubbed Result JSON and of the Perfetto export at
// workers=1. The parallel drivers must match workers=1 exactly, so this one
// file pins every worker count.
const parallelGolden = "testdata/parallel_results.golden"

// scrubWall zeroes the wall-clock-dependent result fields so serial- and
// parallel-driver runs compare on simulated outcome alone.
func scrubWall(r *Result) {
	r.WallSeconds, r.KCPS = 0, 0
	if r.Utilization != nil {
		r.Utilization.Profile.WallSeconds = 0
		r.Utilization.Profile.EventsPerSec = 0
		r.Utilization.Profile.SimNSPerWallMS = 0
	}
}

// runDomains builds the platform in parallel (domain) mode with the given
// worker count, runs the workload with event tracing on, and returns the
// scrubbed result plus the Perfetto export bytes.
func runDomains(t *testing.T, cfg config.Platform, w workload.Spec, mode Mode, workers int) (Result, []byte) {
	t.Helper()
	cfg.Parallel = true
	cfg.ParallelWorkers = workers
	p, err := Build(cfg)
	if err != nil {
		t.Fatalf("build (workers=%d): %v", workers, err)
	}
	tr := p.EnableTracing(evtrace.Options{Events: true})
	res, err := p.Run(w, mode)
	if err != nil {
		t.Fatalf("run (workers=%d): %v", workers, err)
	}
	var buf bytes.Buffer
	if err := tr.WritePerfetto(&buf); err != nil {
		t.Fatalf("perfetto export (workers=%d): %v", workers, err)
	}
	scrubWall(&res)
	return res, buf.Bytes()
}

// readGolden parses the sharded-core golden into case name -> hash line.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(parallelGolden)
	if err != nil && !(*updateGolden && os.IsNotExist(err)) {
		t.Fatalf("missing golden file (run `go test -run TestParallelDeterminism -update`): %v", err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, _, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			out[name] = line
		}
	}
	return out
}

// writeGolden rewrites the golden file in case order.
func writeGolden(t *testing.T, names []string, lines map[string]string) {
	t.Helper()
	var b strings.Builder
	b.WriteString("# Sharded core, workers=1: SHA-256 of the scrubbed Result JSON and of the Perfetto export.\n")
	b.WriteString("# Regenerate with `go test ./internal/core -run TestParallelDeterminism -update`.\n")
	for _, n := range names {
		if l, ok := lines[n]; ok {
			b.WriteString(l + "\n")
		}
	}
	if err := os.MkdirAll(filepath.Dir(parallelGolden), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(parallelGolden, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// goldenLine renders one case's hashes. The replay case's trace lives in a
// temp dir, so its path is replaced before hashing.
func goldenLine(t *testing.T, name string, res Result, perfetto []byte, tracePath string) string {
	t.Helper()
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	js = bytes.ReplaceAll(js, []byte(tracePath), []byte("trace"))
	return fmt.Sprintf("%s result=%x perfetto=%x", name, sha256.Sum256(js), sha256.Sum256(perfetto))
}

// TestParallelDeterminism pins the sharded core's central guarantee: for a
// fixed seed, the serial domain driver (workers=1) and the parallel driver
// produce identical results — the full Result struct and the byte-exact
// Perfetto event trace — across topologies, FTL modes and access patterns.
// The workers=1 outcome is itself pinned by parallelGolden, so a change to
// the sharded model shows up even when every worker count agrees.
func TestParallelDeterminism(t *testing.T) {
	mapperCfg := func(name string) config.Platform {
		cfg, err := config.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg.FTLMode = "mapper"
		cfg.MapperBlocksPerUnit = 6
		// Small managed space with generous spare so the mapper's minimum
		// spare-page floor holds on the restricted topology and GC kicks in
		// quickly.
		cfg.SpareFactor = 0.45
		return cfg
	}
	preset := func(name string) config.Platform {
		cfg, err := config.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	// A mixed read/write trace replay: reads exercise the shard-side lazy
	// first-touch preload, writes exercise live WAF reclassification — the
	// two mechanisms that previously forced replay off the parallel core.
	replayPath := writeTrace(t, workload.Spec{
		Pattern: trace.RandRead, BlockSize: 4096, SpanBytes: 1 << 24,
		Requests: 400, Seed: 29, WriteFrac: 0.4,
	})
	cases := []struct {
		name string
		cfg  config.Platform
		w    workload.Spec
		mode Mode
	}{
		{"seqwrite-waf-c3", preset("t3:C3"),
			workload.Patterned(trace.SeqWrite, 4096, 1<<26, 600, 7), ModeFull},
		{"randwrite-waf-c4", preset("t3:C4"),
			workload.Patterned(trace.RandWrite, 4096, 1<<24, 400, 11), ModeFull},
		{"randread-waf-c4", preset("t3:C4"),
			workload.Patterned(trace.RandRead, 4096, 1<<24, 400, 13), ModeFull},
		{"seqwrite-vertex-ecc", preset("vertex"),
			workload.Patterned(trace.SeqWrite, 4096, 1<<26, 400, 17), ModeFull},
		{"randwrite-mapper-c3", mapperCfg("t3:C3"),
			workload.Patterned(trace.RandWrite, 4096, 1<<22, 400, 19), ModeFull},
		{"drain-write-c4", preset("t3:C4"),
			workload.Patterned(trace.SeqWrite, 4096, 1<<24, 256, 23), ModeDDRFlash},
		{"drain-read-c4", preset("t3:C4"),
			workload.Patterned(trace.SeqRead, 4096, 1<<24, 256, 37), ModeDDRFlash},
		{"mixed-mapper-c3", mapperCfg("t3:C3"),
			workload.Spec{Pattern: trace.RandRead, BlockSize: 4096, SpanBytes: 1 << 22,
				Requests: 400, Seed: 41, WriteFrac: 0.5}, ModeFull},
		{"replay-mixed-c4", preset("t3:C4"),
			workload.Spec{TracePath: replayPath}, ModeFull},
	}
	golden := readGolden(t)
	var names []string
	for _, tc := range cases {
		names = append(names, tc.name)
		t.Run(tc.name, func(t *testing.T) {
			ref, refTrace := runDomains(t, tc.cfg, tc.w, tc.mode, 1)
			if ref.Completed == 0 {
				t.Fatal("reference run completed nothing")
			}
			line := goldenLine(t, tc.name, ref, refTrace, replayPath)
			if *updateGolden {
				golden[tc.name] = line
			} else if golden[tc.name] != line {
				t.Errorf("workers=1 outcome drifted from %s:\ngot:  %s\nwant: %s\n(re-run with -update only if the change is intended)",
					parallelGolden, line, golden[tc.name])
			}
			for _, workers := range []int{2, 4} {
				got, gotTrace := runDomains(t, tc.cfg, tc.w, tc.mode, workers)
				if !reflect.DeepEqual(ref, got) {
					t.Errorf("workers=%d Result diverged from serial driver:\nserial:   %+v\nparallel: %+v",
						workers, ref, got)
				}
				if !bytes.Equal(refTrace, gotTrace) {
					t.Errorf("workers=%d Perfetto export differs (%d vs %d bytes)",
						workers, len(refTrace), len(gotTrace))
				}
			}
		})
	}
	if *updateGolden {
		writeGolden(t, names, golden)
	}
}

// TestParallelModeRuns smokes the domain core end to end without tracing and
// checks the bookkeeping the bench rows rely on.
func TestParallelModeRuns(t *testing.T) {
	cfg, err := config.Preset("t3:C4")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallel = true
	cfg.ParallelWorkers = 2
	w := workload.Patterned(trace.SeqWrite, 4096, 1<<26, 500, 7)
	res, err := RunWorkload(cfg, w, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 500 || res.Events == 0 || res.SimTime == 0 {
		t.Fatalf("implausible parallel result: %+v", res)
	}
	if res.MBps <= 0 {
		t.Fatalf("no throughput measured: %v", res.MBps)
	}
}

// TestParallelLookaheadConfig checks that the sharded core's window width is
// the modeled hand-off constant: a hub-to-channel post at exactly handoff is
// accepted, one a picosecond shorter breaks conservative lookahead. The
// retired parallel_lookahead_ns key is an unknown key to Parse.
func TestParallelLookaheadConfig(t *testing.T) {
	if handoff != sim.Microsecond {
		t.Fatalf("handoff = %v, want 1us", handoff)
	}
	cfg := config.Default()
	cfg.Parallel = true
	cfg.ParallelWorkers = 1
	p, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hub, ch0 := p.ds.Domain(0), p.ds.Domain(1)
	ran := false
	hub.K.Schedule(0, func() { hub.Post(ch0, handoff, func() { ran = true }) })
	p.ds.Run()
	if !ran {
		t.Fatal("post at the hand-off latency was not delivered")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("post below the hand-off latency did not panic")
			}
		}()
		hub.Post(ch0, handoff-1, func() {})
	}()
	_, err = config.Parse(strings.NewReader("parallel_lookahead_ns = 250\n"))
	if err == nil || !strings.Contains(err.Error(), "unknown key") {
		t.Fatalf("parallel_lookahead_ns: got %v, want an unknown key error", err)
	}
}

// TestParallelECCPoolsAllServe checks that the sharded core registers only
// ECC engines that can serve: each channel domain's pool, no hub pool. An
// idle hub pool would show as dead tracks and dilute the ECC utilization
// mean. Every ECC engine of a random-read run on an ECC-coded preset must
// therefore record work.
func TestParallelECCPoolsAllServe(t *testing.T) {
	cfg, err := config.Preset("vertex")
	if err != nil {
		t.Fatal(err)
	}
	res, _ := runDomains(t, cfg, workload.Patterned(trace.RandRead, 4096, 1<<26, 2000, 13), ModeFull, 1)
	want := cfg.Channels * cfg.ECCEngines
	got := 0
	for _, r := range res.Utilization.Resources {
		if r.Kind != "ecc" {
			continue
		}
		got++
		if r.Ops == 0 {
			t.Errorf("ECC engine %s served nothing", r.Name)
		}
	}
	if got != want {
		t.Errorf("%d ECC engines registered, want %d (one pool per channel)", got, want)
	}
}
