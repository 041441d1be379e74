package core

import (
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
	"repro/internal/workload"
)

// mapperCfg is a Vertex-class platform running the real page-mapped FTL
// restricted to a small managed region so garbage collection is reachable
// in test-sized runs.
func mapperCfg() config.Platform {
	cfg := config.Vertex()
	cfg.FTLMode = "mapper"
	// The mapper reserves two free blocks per unit for GC headroom, so a
	// small managed region needs a generous spare factor.
	cfg.SpareFactor = 0.35
	cfg.MapperBlocksPerUnit = 6
	return cfg
}

func TestMapperModeSequential(t *testing.T) {
	w := workload.Spec{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 26, Requests: 6000, Seed: 7}
	res, err := RunWorkload(mapperCfg(), w, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 6000 {
		t.Fatalf("completed %d", res.Completed)
	}
	// Sequential traffic keeps measured WAF near 1 even with GC enabled.
	if res.WAF > 1.3 {
		t.Fatalf("sequential measured WAF %.2f", res.WAF)
	}
	if res.MBps < 40 {
		t.Fatalf("mapper sequential throughput %.1f implausible", res.MBps)
	}
}

func TestMapperModeRandomGC(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Span sized above the managed capacity share so random overwrites
	// force real garbage collection.
	cfg := mapperCfg()
	w := workload.Spec{Pattern: trace.RandWrite, BlockSize: 4096, SpanBytes: 96 << 20, Requests: 40000, Seed: 7}
	res, err := RunWorkload(cfg, w, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if res.GCCopies == 0 || res.Erases == 0 {
		t.Fatalf("real FTL never collected: copies %d erases %d", res.GCCopies, res.Erases)
	}
	if res.WAF <= 1.05 {
		t.Fatalf("measured WAF %.2f under random overwrites", res.WAF)
	}
	// Random throughput must fall below sequential (GC steals bandwidth).
	seq, err := RunWorkload(mapperCfg(), workload.Spec{
		Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 25, Requests: 40000, Seed: 7,
	}, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if res.MBps >= seq.MBps {
		t.Fatalf("random %.1f not below sequential %.1f", res.MBps, seq.MBps)
	}
}

func TestMapperModeReadAfterWrite(t *testing.T) {
	// Write then read back through the real map via trace replay.
	var reqs []trace.Request
	for i := 0; i < 400; i++ {
		reqs = append(reqs, trace.Request{Op: trace.OpWrite, LBA: int64(i) * 8, Bytes: 4096})
	}
	for i := 0; i < 400; i++ {
		reqs = append(reqs, trace.Request{Op: trace.OpRead, LBA: int64(i) * 8, Bytes: 4096})
	}
	p, err := Build(mapperCfg())
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunRequests(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 800 {
		t.Fatalf("completed %d", res.Completed)
	}
	// Reads of written pages must touch flash.
	if res.FlashReads < 400 {
		t.Fatalf("flash reads %d, map did not resolve", res.FlashReads)
	}
}

func TestMapperModeUnwrittenReadZeroFill(t *testing.T) {
	// Reading never-written space in mapper mode is served from the map
	// (no flash access) and still completes.
	p, err := Build(mapperCfg())
	if err != nil {
		t.Fatal(err)
	}
	reqs := []trace.Request{{Op: trace.OpRead, LBA: 0, Bytes: 4096}}
	res, err := p.RunRequests(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 {
		t.Fatalf("completed %d", res.Completed)
	}
	if res.FlashReads != 0 {
		t.Fatalf("zero-fill read touched flash %d times", res.FlashReads)
	}
}

func TestMapperModeTrim(t *testing.T) {
	p, err := Build(mapperCfg())
	if err != nil {
		t.Fatal(err)
	}
	reqs := []trace.Request{
		{Op: trace.OpWrite, LBA: 0, Bytes: 4096},
		{Op: trace.OpTrim, LBA: 0, Bytes: 4096},
		{Op: trace.OpRead, LBA: 0, Bytes: 4096},
	}
	res, err := p.RunRequests(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 3 {
		t.Fatalf("completed %d", res.Completed)
	}
	// Post-trim read is zero-fill: exactly zero flash reads.
	if res.FlashReads != 0 {
		t.Fatalf("trimmed page still mapped (%d flash reads)", res.FlashReads)
	}
}

func TestFirmwareCPUModel(t *testing.T) {
	// Real firmware execution must behave like a working platform and
	// show the same qualitative random-read CPU wall as the parametric
	// model (the table walk runs on the interpreter instead).
	cfg := config.Vertex()
	cfg.CPUModel = "firmware"
	w := workload.Spec{Pattern: trace.RandRead, BlockSize: 4096, SpanBytes: 1 << 26, Requests: 4000, Seed: 7}
	fw, err := RunWorkload(cfg, w, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if fw.Completed != 4000 {
		t.Fatalf("completed %d", fw.Completed)
	}
	if fw.MBps <= 0 {
		t.Fatalf("throughput %v", fw.MBps)
	}
	// The assembled lookup routine is far cheaper than the parametric
	// random-map cost (flat table in SRAM vs. modelled table walk), so
	// firmware-mode random reads run faster.
	cfg2 := config.Vertex()
	par, err := RunWorkload(cfg2, w, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if fw.MBps <= par.MBps {
		t.Fatalf("firmware %.1f vs parametric %.1f: expected cheaper lookup", fw.MBps, par.MBps)
	}
}

func TestFirmwareCPUModelWrites(t *testing.T) {
	cfg := config.Vertex()
	cfg.CPUModel = "firmware"
	w := workload.Spec{Pattern: trace.SeqWrite, BlockSize: 4096, SpanBytes: 1 << 26, Requests: 3000, Seed: 7}
	res, err := RunWorkload(cfg, w, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 3000 || res.MBps <= 0 {
		t.Fatalf("firmware write run: %+v", res)
	}
}

// TestRunRequestsReportsMeasuredWAF checks that Run and RunRequests agree on
// WAF for the same trace in both FTL modes. In mapper mode both must report
// the real FTL's measured amplification, not the WAF abstraction's value.
func TestRunRequestsReportsMeasuredWAF(t *testing.T) {
	for _, mode := range []string{"waf", "mapper"} {
		t.Run(mode, func(t *testing.T) {
			cfg, err := config.Preset("t3:C3")
			if err != nil {
				t.Fatal(err)
			}
			cfg.FTLMode = mode
			cfg.SpareFactor = 0.45
			w := workload.Patterned(trace.RandWrite, 4096, 1<<24, 6000, 3)
			reqs, err := w.Generate()
			if err != nil {
				t.Fatal(err)
			}
			p, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fromReqs, err := p.RunRequests(reqs)
			if err != nil {
				t.Fatal(err)
			}
			p, err = Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fromRun, err := p.Run(w, ModeFull)
			if err != nil {
				t.Fatal(err)
			}
			if fromReqs.WAF != fromRun.WAF {
				t.Errorf("RunRequests WAF %.4f, Run WAF %.4f", fromReqs.WAF, fromRun.WAF)
			}
			if mode == "mapper" {
				measured := float64(fromReqs.FlashWrites) / float64(fromReqs.UserPages)
				if math.Abs(fromReqs.WAF-measured) > 1e-9 {
					t.Errorf("mapper WAF %.4f, flash writes per user page %.4f", fromReqs.WAF, measured)
				}
			}
		})
	}
}
