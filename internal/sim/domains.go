package sim

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry/metrics"
)

// This file implements the parallel discrete-event core: a set of clock
// domains, each wrapping its own Kernel, synchronized with conservative
// lookahead. Domains advance together through bounded time windows
// [T, T+lookahead) where T is the global minimum next-event time; within a
// window every domain executes independently (its own goroutine in the
// parallel driver), because any message it could receive from another domain
// carries at least `lookahead` of modeled hand-off latency and therefore
// cannot land inside the current window. At each window barrier the
// coordinator collects every domain's outbound messages, orders them
// deterministically — by timestamp, ties broken by sender domain id and then
// send order — and injects them into the target kernels. Because delivery
// order fixes the target kernel's sequence numbers, a fixed seed produces
// byte-identical executions whether the windows run on one worker or many.

// message is one cross-domain event: a callback to run on the target
// domain's kernel at an absolute timestamp at least `lookahead` ahead of the
// sender's clock when it was posted.
type message struct {
	at Time
	to int
	fn func()
}

// Domain is one clock domain of a DomainSet: a private event kernel plus an
// outbound message buffer drained at every window barrier. All of a domain's
// events run single-threaded (one domain never runs on two workers at once),
// so models built on its Kernel need no locking.
type Domain struct {
	ds  *DomainSet
	id  int
	K   *Kernel
	out []message
}

// ID returns the domain's index within its set.
func (d *Domain) ID() int { return d.id }

// Post schedules fn on the target domain at the sender's current time plus
// delay. Posting to the sender's own domain is an ordinary local Schedule;
// posting to another domain requires delay >= the set's lookahead (the
// conservative-synchronization contract: a message created inside a window
// must not land inside it) and panics otherwise. Post must be called from
// the sender domain's executing event — that is what makes the send order,
// and therefore the deterministic merge at the barrier, well defined.
//
//ssdx:hotpath
func (d *Domain) Post(to *Domain, delay Time, fn func()) {
	if fn == nil {
		panic("sim: nil cross-domain callback")
	}
	if to == d {
		d.K.Schedule(delay, fn)
		return
	}
	if delay < d.ds.lookahead {
		causalityPanic(delay, d.ds.lookahead)
	}
	d.out = append(d.out, message{at: d.K.Now() + delay, to: to.id, fn: fn})
}

// causalityPanic formats the lookahead-violation panic off the hot path so
// Post itself stays allocation-free.
func causalityPanic(delay, lookahead Time) {
	panic(fmt.Sprintf("sim: cross-domain delay %v below lookahead %v violates causality",
		delay, lookahead))
}

// DomainSet coordinates n clock domains through conservative lookahead
// windows. Workers selects the driver: 1 runs every window on the calling
// goroutine in domain-id order (the serial driver — bitwise identical to the
// parallel one, useful for determinism pinning and debugging), larger values
// fan active domains out over that many persistent worker goroutines.
type DomainSet struct {
	domains   []*Domain
	lookahead Time
	workers   int

	stopped atomic.Bool
	scratch []message // barrier merge buffer, reused across windows

	// Per-window worker rendezvous: horizon is published before the work
	// channel sends and read after the receives, so the channel provides the
	// happens-before edge.
	horizon Time
	work    chan int
	wg      sync.WaitGroup

	// metrics, when non-nil, mirrors coordinator activity into live
	// counters. Bound via SetMetrics before Run; workers read it through the
	// happens-before edge of their own spawn.
	metrics *DomainMetrics
}

// DomainMetrics is the live-metrics hook bundle for a DomainSet. Any field
// may be nil (the metric methods are nil-safe); a nil *DomainMetrics turns
// the whole layer off. Events is shared across every domain kernel; the
// per-worker slices are indexed by worker id and may be shorter than the
// worker count (extra workers simply go untimed). All values are wall-clock
// observations — they never feed back into simulated time, so enabling them
// cannot perturb determinism.
type DomainMetrics struct {
	Events         *metrics.Counter   // events executed across all domain kernels
	Windows        *metrics.Counter   // conservative windows completed
	Messages       *metrics.Counter   // cross-domain messages delivered
	WindowMessages *metrics.Histogram // messages merged per window barrier
	WorkerBusyNS   []*metrics.Counter // wall ns spent running domain windows
	WorkerIdleNS   []*metrics.Counter // wall ns spent waiting for window work
}

// SetMetrics binds (or, with nil, unbinds) live metrics. Must be called
// before Run: the worker pool snapshots the binding when it starts.
func (ds *DomainSet) SetMetrics(m *DomainMetrics) {
	ds.metrics = m
	var ev *metrics.Counter
	if m != nil {
		ev = m.Events
	}
	for _, d := range ds.domains {
		d.K.Events = ev
	}
}

// NewDomainSet builds n domains driven by the given worker count (0 means
// GOMAXPROCS, clamped to n). The lookahead is the minimum cross-domain
// hand-off latency and must be positive: a zero or negative lookahead gives
// windows no width, so conservative synchronization cannot make progress —
// the constructor panics rather than deadlock later.
func NewDomainSet(n int, lookahead Time, workers int) *DomainSet {
	if n < 1 {
		panic("sim: domain set needs at least one domain")
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: non-positive lookahead %v (conservative windows need width)", lookahead))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	ds := &DomainSet{lookahead: lookahead, workers: workers}
	for i := 0; i < n; i++ {
		ds.domains = append(ds.domains, &Domain{ds: ds, id: i, K: NewKernel()})
	}
	return ds
}

// Domain returns domain i.
func (ds *DomainSet) Domain(i int) *Domain { return ds.domains[i] }

// Domains returns the number of domains.
func (ds *DomainSet) Domains() int { return len(ds.domains) }

// Workers returns the worker count the parallel driver uses.
func (ds *DomainSet) Workers() int { return ds.workers }

// Stop makes Run return at the next window barrier. It is safe to call from
// any domain's executing event (and from other goroutines): the current
// window always completes on every domain regardless of which worker
// observed the flag first, so a stopped run is deterministic too.
func (ds *DomainSet) Stop() { ds.stopped.Store(true) }

// Executed sums delivered events across every domain's kernel. Call after
// Run returns (kernels are not synchronized mid-run).
func (ds *DomainSet) Executed() uint64 {
	var n uint64
	for _, d := range ds.domains {
		n += d.K.Executed
	}
	return n
}

// Now returns the latest clock across the domains — the simulated time the
// set as a whole has reached. Call after Run returns.
func (ds *DomainSet) Now() Time {
	var t Time
	for _, d := range ds.domains {
		if n := d.K.Now(); n > t {
			t = n
		}
	}
	return t
}

// Run advances every domain until no events and no undelivered messages
// remain, or until Stop. It returns the final set-wide time. The loop per
// window: find the global minimum next-event time T, run every domain with
// work before T+lookahead (idle domains are skipped — their clocks lag, but
// message injection uses absolute times so they catch up on first contact),
// then merge and deliver the window's cross-domain messages.
func (ds *DomainSet) Run() Time {
	ds.stopped.Store(false)
	var active []int
	if ds.workers > 1 && ds.work == nil {
		ds.work = make(chan int, len(ds.domains))
		for i := 0; i < ds.workers; i++ {
			go ds.worker(i, ds.work)
		}
	}
	for !ds.stopped.Load() {
		t := MaxTime
		for _, d := range ds.domains {
			if at := d.K.NextAt(); at < t {
				t = at
			}
		}
		if t == MaxTime {
			break
		}
		horizon := t + ds.lookahead - 1
		if horizon < t {
			horizon = MaxTime // overflow clamp
		}
		active = active[:0]
		for _, d := range ds.domains {
			if d.K.NextAt() <= horizon {
				active = append(active, d.id)
			}
		}
		if ds.workers == 1 || len(active) == 1 {
			// Serial driver, and the parallel driver's fast path for windows
			// with one busy domain (host-only phases): run inline, in
			// domain-id order.
			for _, id := range active {
				ds.domains[id].K.Run(horizon)
			}
		} else {
			ds.horizon = horizon
			ds.wg.Add(len(active))
			for _, id := range active {
				ds.work <- id
			}
			ds.wg.Wait()
		}
		ds.deliver()
		if ds.metrics != nil {
			ds.metrics.Windows.Inc()
		}
	}
	if ds.work != nil {
		close(ds.work)
		ds.work = nil
	}
	return ds.Now()
}

// worker drains domain ids for the current window. The work channel carries
// the happens-before edges publishing horizon and each domain's state; it is
// passed by value so Run can detach the field when it closes the pool. When
// busy/idle counters are bound for this worker, each receive is bracketed
// with wall-clock stamps; with metrics off the loop takes no timestamps.
func (ds *DomainSet) worker(w int, work chan int) {
	var busy, idle *metrics.Counter
	if m := ds.metrics; m != nil {
		if w < len(m.WorkerBusyNS) {
			busy = m.WorkerBusyNS[w]
		}
		if w < len(m.WorkerIdleNS) {
			idle = m.WorkerIdleNS[w]
		}
	}
	timed := busy != nil || idle != nil
	var last time.Time
	if timed {
		last = time.Now() //ssdx:wallclock
	}
	for id := range work {
		if timed {
			now := time.Now() //ssdx:wallclock
			idle.Add(uint64(now.Sub(last)))
			last = now
		}
		ds.domains[id].K.Run(ds.horizon)
		if timed {
			now := time.Now() //ssdx:wallclock
			busy.Add(uint64(now.Sub(last)))
			last = now
		}
		ds.wg.Done()
	}
}

// deliver merges every domain's outbound messages — collected in domain-id
// order, stably sorted by timestamp, so ties resolve (timestamp, sender id,
// send order) — and injects them into the target kernels. Injection order
// assigns the target kernels' sequence numbers, which pins the execution
// order of same-timestamp deliveries; that is the whole determinism
// argument, so this function must stay order-stable.
func (ds *DomainSet) deliver() {
	msgs := ds.scratch[:0]
	for _, d := range ds.domains {
		msgs = append(msgs, d.out...)
		d.out = d.out[:0]
	}
	if len(msgs) > 1 {
		sort.SliceStable(msgs, func(i, j int) bool { return msgs[i].at < msgs[j].at })
	}
	if ds.metrics != nil {
		ds.metrics.Messages.Add(uint64(len(msgs)))
		ds.metrics.WindowMessages.Observe(float64(len(msgs)))
	}
	for i := range msgs {
		ds.domains[msgs[i].to].K.At(msgs[i].at, msgs[i].fn)
		msgs[i].fn = nil
	}
	ds.scratch = msgs[:0]
}
