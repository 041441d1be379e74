package core

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/sim"
	evtrace "repro/internal/telemetry/trace"
)

// EnableTracing attaches a device-wide event tracer to a built platform:
// every modeled resource — NAND dies, ONFI buses, DRAM buffers, ECC
// engines, CPU cores, AHB layers, host links and (once a multi-queue run
// starts) per-tenant submission queues — registers a trace track, and the
// run's Result carries the aggregated utilization report. Call between
// Build and the run; the returned tracer can export a Perfetto trace after
// the run. Tracing off (never calling this) costs the hot path nothing but
// nil-checks.
func (p *Platform) EnableTracing(opt evtrace.Options) *evtrace.Tracer {
	if p.tracer != nil {
		return p.tracer
	}
	tr := evtrace.New(opt)
	p.tracer = tr

	// Host links and submission queues.
	p.Host.SetTracer(tr)

	// CPU cores.
	for _, core := range p.CPU.Cores() {
		res := tr.Register(evtrace.KindCPU, core.Name())
		core.OnServe = func(start, end sim.Time) {
			tr.Interval(res, evtrace.OpBusy, start, end)
		}
	}

	// AHB interconnect layers.
	ahbRes := make([]int32, p.Bus.Config().Layers)
	for i := range ahbRes {
		ahbRes[i] = tr.Register(evtrace.KindAHB, fmt.Sprintf("ahb%d", i))
	}
	p.Bus.OnGrant = func(layer int, start, end sim.Time) {
		tr.Interval(ahbRes[layer], evtrace.OpXfer, start, end)
	}

	// DRAM buffers and the shared ECC pool (serial mode only).
	for _, b := range p.DRAM.Buffers {
		traceDRAM(tr, tr, b)
	}
	traceECC(tr, tr, p.ecc)

	// Channels: dies (per-op-kind intervals, GC split, flow steps) and ONFI
	// buses. In parallel mode every channel domain logs into a private sink
	// (shared resource table, own event buffer — each resource has exactly
	// one writing domain); runKernel folds the sinks back into the main
	// tracer after each run.
	for c, ch := range p.Channels {
		if p.ds == nil {
			ch.SetTracer(tr)
			continue
		}
		sink := tr.Sink()
		p.traceSinks = append(p.traceSinks, sink)
		ch.SetTracer(sink)
		// The shard's private interconnect, DRAM buffer and ECC engines.
		bres := tr.Register(evtrace.KindAHB, fmt.Sprintf("ch%d-ahb", c))
		p.shardBuses[c].OnGrant = func(_ int, start, end sim.Time) {
			sink.Interval(bres, evtrace.OpXfer, start, end)
		}
		traceDRAM(tr, sink, p.shardDRAM[c])
		traceECC(tr, sink, p.lanes[c].ecc)
	}
	return tr
}

// traceDRAM registers buffer b on tr and logs its accesses into w: tr
// itself, or the sink of the channel domain that owns b.
func traceDRAM(tr, w *evtrace.Tracer, b *dram.Buffer) {
	res := tr.Register(evtrace.KindDRAM, fmt.Sprintf("ddr%d", b.ID))
	b.OnServe = func(write bool, start, end sim.Time) {
		op := evtrace.OpRead
		if write {
			op = evtrace.OpWrite
		}
		w.Interval(res, op, start, end)
	}
}

// traceECC registers pool ep's engines on tr and logs their service windows
// into w. A nil pool registers nothing.
func traceECC(tr, w *evtrace.Tracer, ep *eccPool) {
	if ep == nil {
		return
	}
	for _, e := range ep.engines {
		res := tr.Register(evtrace.KindECC, e.Name())
		e.OnServe = func(start, end sim.Time) {
			w.Interval(res, evtrace.OpBusy, start, end)
		}
	}
}

// Tracer returns the attached event tracer (nil when tracing is off).
func (p *Platform) Tracer() *evtrace.Tracer { return p.tracer }

// utilizationReport folds the tracer's aggregates into a report at the
// kernel's current time, stamping the simulator self-profile. wallSeconds
// may be zero (deterministic contexts leave wall-clock fields unset).
func (p *Platform) utilizationReport(wallSeconds float64) *evtrace.Report {
	if p.tracer == nil {
		return nil
	}
	rep := p.tracer.Report(p.simNow())
	rep.Profile.KernelEvents = p.kernelEvents()
	if wallSeconds > 0 {
		rep.Profile.WallSeconds = wallSeconds
		rep.Profile.EventsPerSec = float64(p.kernelEvents()) / wallSeconds
		rep.Profile.SimNSPerWallMS = rep.SimNS / (wallSeconds * 1e3)
	}
	return rep
}
