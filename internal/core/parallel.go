package core

import (
	"fmt"

	"repro/internal/amba"
	"repro/internal/dram"
	"repro/internal/sim"
)

// This file holds the sharded event core's driver side: with Parallel set,
// the platform shards into 1+Channels clock domains — the hub (host
// interface, CPU complex, compressor, staging DRAM and the whole FTL brain)
// plus one domain per ONFI channel (its dies, buses, SRAM
// cache gate, a private PP-DMA interconnect, DRAM buffer and ECC pool).
// Cross-domain interactions become timestamped messages carrying the
// modeled hand-off latency, which doubles as the conservative lookahead the
// domain coordinator synchronizes on. The crossing itself is the per-channel
// lane (lane.go); the device model above it is the same in both modes. The
// helpers here switch on the mode because they observe genuinely different
// drivers: one kernel, or a coordinator over many.

// handoff is the modeled hub↔channel hand-off latency, which doubles as the
// conservative lookahead the domain coordinator synchronizes on. It is part
// of the sharded model, not a tuning knob: a wider window would move
// simulated time. 1us is comfortably below NAND array times (tens to
// hundreds of us) so it does not distort channel behaviour, yet wide enough
// to give windows real batches of events.
const handoff = sim.Microsecond

// shardPorts builds channel c's private data path on its domain kernel k: a
// one-layer interconnect carrying the channel's PP-DMA master and a private
// DRAM buffer.
func (p *Platform) shardPorts(c int, k *sim.Kernel) (*amba.Master, *dram.Buffer, error) {
	cfg := amba.DefaultConfig()
	cfg.Layers = 1
	bus, err := amba.NewBus(k, cfg)
	if err != nil {
		return nil, nil, err
	}
	p.shardBuses = append(p.shardBuses, bus)
	m, err := bus.AttachMaster(fmt.Sprintf("ppdma%d", c))
	if err != nil {
		return nil, nil, err
	}
	buf, err := dram.New(k, c+1, dram.DDR2_800x16(64<<20))
	if err != nil {
		return nil, nil, err
	}
	p.shardDRAM = append(p.shardDRAM, buf)
	return m, buf, nil
}

// runKernel drives the event core to completion: the monolithic kernel in
// serial mode, the domain coordinator in parallel mode. After a domain run
// the per-shard trace sinks fold back into the main tracer so reporting and
// export see one device-wide event stream.
func (p *Platform) runKernel() {
	if p.ds == nil {
		p.K.RunAll()
		return
	}
	p.ds.Run()
	if p.tracer != nil {
		p.tracer.Absorb(p.traceSinks...)
	}
}

// kernelEvents counts delivered events across every domain.
func (p *Platform) kernelEvents() uint64 {
	if p.ds != nil {
		return p.ds.Executed()
	}
	return p.K.Executed
}

// simNow is the set-wide simulated time (the hub kernel's clock in serial
// mode).
func (p *Platform) simNow() sim.Time {
	if p.ds != nil {
		return p.ds.Now()
	}
	return p.K.Now()
}

// busUtilization aggregates interconnect utilization — the hub AHB alone in
// serial mode, layer-weighted across the hub and shard buses in parallel
// mode (each shard bus models the PP-DMA layer the monolith would dedicate
// to that channel under per-channel layering).
func (p *Platform) busUtilization(now sim.Time) float64 {
	if p.ds == nil {
		return p.Bus.Utilization(now)
	}
	layers := p.Bus.Config().Layers
	total := p.Bus.Utilization(now) * float64(layers)
	for _, b := range p.shardBuses {
		n := b.Config().Layers
		total += b.Utilization(now) * float64(n)
		layers += n
	}
	return total / float64(layers)
}
