// Package dram models the SSD's DRAM data buffers at the cycle-accurate
// abstraction the paper assigns to them (§III-C2): a DDR2 SDRAM device per
// buffer with bank state, row activate/precharge, CAS latency, write
// recovery and periodic refresh — the "column pre-charging, refresh
// operations, detailed command timings" the paper lists as the reason a
// behavioural DRAM model is insufficient. It substitutes for the SystemC
// port of DRAMSim2 [18] used by SSDExplorer.
package dram

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Config describes one DDR2 buffer device and its interface timing. All
// cycle quantities are in memory-clock cycles (DDR: two data transfers per
// clock).
type Config struct {
	ClockMHz float64 // I/O clock (DDR2-800 -> 400 MHz)
	BusBytes int     // data bus width in bytes (x16 -> 2)
	BurstLen int     // BL in transfers (8 typical)
	Banks    int
	RowBytes int64 // row (page) size per bank

	CL   int // CAS latency
	TRCD int // RAS-to-CAS delay
	TRP  int // row precharge
	TRAS int // row active minimum (not directly modelled; kept for docs)
	TWR  int // write recovery
	TRFC int // refresh cycle time

	TREFI sim.Time // average refresh interval

	CapacityBytes int64 // addressable bytes in this buffer
}

// DDR2_800x16 returns the DDR2-800 x16 profile the paper's results are
// modelled after ("the results of this work are modeled after a DDR2 SDRAM
// interface").
func DDR2_800x16(capacity int64) Config {
	return Config{
		ClockMHz:      400,
		BusBytes:      2,
		BurstLen:      8,
		Banks:         8,
		RowBytes:      2048,
		CL:            5,
		TRCD:          5,
		TRP:           5,
		TRAS:          18,
		TWR:           6,
		TRFC:          51,
		TREFI:         7800 * sim.Nanosecond,
		CapacityBytes: capacity,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.ClockMHz <= 0 || c.BusBytes <= 0 || c.BurstLen <= 0 || c.Banks <= 0 || c.RowBytes <= 0 {
		return fmt.Errorf("dram: invalid config %+v", c)
	}
	if c.CL < 0 || c.TRCD < 0 || c.TRP < 0 || c.TWR < 0 || c.TRFC < 0 {
		return errors.New("dram: negative timing parameter")
	}
	if c.CapacityBytes <= 0 {
		return errors.New("dram: capacity must be positive")
	}
	if c.CapacityBytes%c.RowBytes != 0 {
		return fmt.Errorf("dram: capacity %d is not a whole number of %d-byte rows", c.CapacityBytes, c.RowBytes)
	}
	return nil
}

// PeakMBps is the theoretical interface bandwidth.
func (c Config) PeakMBps() float64 {
	return c.ClockMHz * 1e6 * 2 * float64(c.BusBytes) / 1e6
}

// BurstBytes is the data moved per burst.
func (c Config) BurstBytes() int64 { return int64(c.BurstLen) * int64(c.BusBytes) }

// Stats aggregates accesses served by one buffer.
type Stats struct {
	Reads      uint64
	Writes     uint64
	BytesRead  uint64
	BytesWrite uint64
	RowHits    uint64
	RowMisses  uint64
	Refreshes  uint64
	BusyTime   sim.Time
}

// Buffer is one DDR2 device with a FCFS controller front-end. Requests are
// served one at a time; within a request the timing is computed analytically
// at clock-cycle granularity, one row run at a time (see serve), which
// preserves DDR2 command timing without one simulation event, or one loop
// step, per column access.
type Buffer struct {
	ID  int
	cfg Config
	k   *sim.Kernel
	clk *sim.Clock

	openRow     []int64 // per bank; -1 = closed
	busyUntil   sim.Time
	nextRefresh sim.Time
	queue       []*req
	free        sim.FreeList[req] // recycled requests (hot-path allocation control)

	Stats Stats

	// OnServe, when set, observes every served access window. Tracing hook:
	// nil by default, one branch cost on the serve path.
	OnServe func(write bool, start, end sim.Time)
}

// req is one queued access. start/end hold the granted service window and
// fire is the request's pre-bound completion callback, both filled at serve
// time so pooled requests never need a fresh closure.
type req struct {
	write      bool
	addr       int64
	bytes      int64
	done       func(start, end sim.Time)
	start, end sim.Time
	fire       func()
}

// New builds a buffer device.
func New(k *sim.Kernel, id int, cfg Config) (*Buffer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &Buffer{
		ID:          id,
		cfg:         cfg,
		k:           k,
		clk:         sim.NewClock(fmt.Sprintf("ddr%d", id), cfg.ClockMHz),
		nextRefresh: cfg.TREFI,
	}
	b.openRow = make([]int64, cfg.Banks)
	for i := range b.openRow {
		b.openRow[i] = -1
	}
	return b, nil
}

// Config returns the buffer configuration.
func (b *Buffer) Config() Config { return b.cfg }

// Access queues a read or write of length bytes starting at addr. done is
// invoked at data completion with the service window. Addresses wrap at
// capacity (the buffer is a ring in cache mode).
func (b *Buffer) Access(write bool, addr int64, bytes int64, done func(start, end sim.Time)) error {
	if bytes <= 0 {
		return errors.New("dram: access of non-positive size")
	}
	if addr < 0 {
		return errors.New("dram: negative address")
	}
	addr %= b.cfg.CapacityBytes
	r := b.allocReq()
	r.write, r.addr, r.bytes, r.done = write, addr, bytes, done
	b.queue = append(b.queue, r)
	b.kick()
	return nil
}

// allocReq takes a pooled request (or builds one with its fire callback).
func (b *Buffer) allocReq() *req {
	if r := b.free.Take(); r != nil {
		return r
	}
	r := &req{}
	r.fire = func() {
		done, start, end := r.done, r.start, r.end
		r.done = nil
		b.free.Give(r)
		if done != nil {
			done(start, end)
		}
		b.kick()
	}
	return r
}

func (b *Buffer) kick() {
	if len(b.queue) == 0 {
		return
	}
	now := b.k.Now()
	if b.busyUntil > now {
		return // completion event will re-kick
	}
	r := b.queue[0]
	copy(b.queue, b.queue[1:])
	b.queue[len(b.queue)-1] = nil
	b.queue = b.queue[:len(b.queue)-1]

	start := b.clk.NextEdge(now)
	end := b.serve(start, r)
	b.busyUntil = end
	b.Stats.BusyTime += end - start
	if b.OnServe != nil {
		b.OnServe(r.write, start, end)
	}
	if r.write {
		b.Stats.Writes++
		b.Stats.BytesWrite += uint64(r.bytes)
	} else {
		b.Stats.Reads++
		b.Stats.BytesRead += uint64(r.bytes)
	}
	r.start, r.end = start, end
	b.k.At(end, r.fire)
}

// serve computes the completion time of r starting at t, updating bank and
// refresh state. The address maps row-interleaved across banks so that
// sequential streams hit open rows.
//
// The walk is per burst in timing but per row run in host work. A burst
// pays, in order: a refresh (tRFC, all banks precharged) if one is due when
// it starts; precharge of another open row (tRP) and activate (tRCD) on a
// row miss; CL on every read burst; its transfer clocks; and, for a write
// whose burst reaches the end of a row, tWR once. Bursts never cross a row.
// The first burst of a row run, and the burst that ends the row, go through
// that step one at a time. The full row-hit bursts between them all cost
// the same, so they are charged in one step, capped before the first one
// that would start at or after the next refresh; that burst then takes the
// per-burst step, so refreshes and row reopens land exactly where a
// burst-by-burst walk would put them.
//
//ssdx:hotpath
func (b *Buffer) serve(t sim.Time, r *req) sim.Time {
	c := b.cfg
	period := b.clk.Period
	burst := c.BurstBytes()
	// hit is the cost of one full burst to an open row.
	hit := sim.Time((c.BurstLen+1)/2) * period
	if !r.write {
		hit += sim.Time(c.CL) * period
	}
	addr, remaining := r.addr, r.bytes
	for remaining > 0 {
		if t >= b.nextRefresh {
			t += sim.Time(c.TRFC) * period
			b.nextRefresh += c.TREFI
			b.Stats.Refreshes++
			for i := range b.openRow {
				b.openRow[i] = -1
			}
		}
		rowIdx := addr / c.RowBytes
		bank := int(rowIdx % int64(c.Banks))
		row := rowIdx / int64(c.Banks)
		if b.openRow[bank] != row {
			if b.openRow[bank] != -1 {
				t += sim.Time(c.TRP) * period
			}
			t += sim.Time(c.TRCD) * period
			b.openRow[bank] = row
			b.Stats.RowMisses++
		} else {
			b.Stats.RowHits++
		}
		if !r.write {
			t += sim.Time(c.CL) * period
		}
		rowRemain := c.RowBytes - addr%c.RowBytes
		n := min(burst, rowRemain, remaining)
		transfers := (n + int64(c.BusBytes) - 1) / int64(c.BusBytes)
		t += sim.Time((transfers+1)/2) * period // DDR: 2 transfers per clock
		remaining -= n
		if n == rowRemain {
			if r.write {
				t += sim.Time(c.TWR) * period
			}
			// The row ends here. Capacity is a whole number of rows, so
			// this is the only place an access can wrap.
			addr = (addr + n) % c.CapacityBytes
			continue
		}
		addr += n

		// The row stays open: charge the full bursts that follow, short of
		// the one that ends the row, as one run of row hits.
		run := min((rowRemain-n-1)/burst, remaining/burst)
		if due := b.nextRefresh - t; due <= 0 {
			run = 0
		} else if sim.Time(run-1)*hit >= due {
			run = int64((due + hit - 1) / hit)
		}
		t += sim.Time(run) * hit
		addr += run * burst
		remaining -= run * burst
		b.Stats.RowHits += uint64(run)
	}
	return t
}

// QueueLen reports waiting requests.
func (b *Buffer) QueueLen() int { return len(b.queue) }

// Busy reports whether the device is serving a request now.
func (b *Buffer) Busy() bool { return b.busyUntil > b.k.Now() }

// Utilization is busy time over elapsed time.
func (b *Buffer) Utilization(now sim.Time) float64 {
	if now <= 0 {
		return 0
	}
	return float64(b.Stats.BusyTime) / float64(now)
}

// Pool is the set of DRAM buffers in a platform; the number of buffers is a
// first-class design-space parameter in the paper (Table II: N-DDR-buf).
// Buffers are assigned to channels round-robin.
type Pool struct {
	Buffers []*Buffer
}

// NewPool creates n identical buffers.
func NewPool(k *sim.Kernel, n int, cfg Config) (*Pool, error) {
	if n < 1 {
		return nil, errors.New("dram: pool needs at least one buffer")
	}
	p := &Pool{}
	for i := 0; i < n; i++ {
		b, err := New(k, i, cfg)
		if err != nil {
			return nil, err
		}
		p.Buffers = append(p.Buffers, b)
	}
	return p, nil
}

// ForChannel returns the buffer serving channel ch (round-robin mapping).
func (p *Pool) ForChannel(ch int) *Buffer {
	return p.Buffers[ch%len(p.Buffers)]
}

// TotalStats sums stats across the pool.
func (p *Pool) TotalStats() Stats {
	var s Stats
	for _, b := range p.Buffers {
		s.Reads += b.Stats.Reads
		s.Writes += b.Stats.Writes
		s.BytesRead += b.Stats.BytesRead
		s.BytesWrite += b.Stats.BytesWrite
		s.RowHits += b.Stats.RowHits
		s.RowMisses += b.Stats.RowMisses
		s.Refreshes += b.Stats.Refreshes
		s.BusyTime += b.Stats.BusyTime
	}
	return s
}
