package core

import (
	"fmt"

	"repro/internal/ctrl"
	"repro/internal/ecc"
	"repro/internal/nand"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// eccPool is a round-robin ECC engine pool bound to one kernel. Serial mode
// has one pool on the shared kernel that every channel uses; sharded mode
// gives each channel domain its own, so encode/decode latency is charged on
// the domain where the data lives.
type eccPool struct {
	k       *sim.Kernel
	scheme  ecc.Scheme // nil for ECC scheme "none"
	wear    float64
	engines []*sim.Server
	next    int
}

// newECCPool builds a pool of n engines named prefix0, prefix1, ...; with no
// scheme it has no engines.
func newECCPool(k *sim.Kernel, scheme ecc.Scheme, wear float64, n int, prefix string) *eccPool {
	ep := &eccPool{k: k, scheme: scheme, wear: wear}
	if scheme != nil {
		for i := 0; i < n; i++ {
			ep.engines = append(ep.engines, sim.NewServer(k, nil, fmt.Sprintf("%s%d", prefix, i)))
		}
	}
	return ep
}

// encode charges the encode latency of pages pages and continues with done.
func (ep *eccPool) encode(pages int, done func()) {
	if ep.scheme == nil {
		ep.k.Schedule(0, done)
		return
	}
	ep.run(ep.scheme.EncodeLatency(ep.wear)*sim.Time(pages), done)
}

// decode charges the decode latency of pages pages and continues with done.
func (ep *eccPool) decode(pages int, done func()) {
	if ep.scheme == nil {
		ep.k.Schedule(0, done)
		return
	}
	ep.run(ep.scheme.DecodeLatency(ep.wear)*sim.Time(pages), done)
}

// run charges lat on the next engine and continues with done.
func (ep *eccPool) run(lat sim.Time, done func()) {
	e := ep.engines[ep.next]
	ep.next = (ep.next + 1) % len(ep.engines)
	e.Acquire(lat, func(_, end sim.Time) {
		ep.k.At(end, done)
	})
}

// lane is one ONFI channel as the hub sees it: the channel controller, the
// ECC pool its pages are coded on and the hub↔channel crossing. Every
// operation the hub issues to a channel goes through one lane method. In
// serial mode the method calls straight through on the shared kernel. In
// sharded mode it posts the call to the channel's clock domain with the
// hand-off latency, and the completion comes back to the hub the same way;
// no other code in the platform posts across domains.
type lane struct {
	p   *Platform
	idx int
	ch  *ctrl.Channel
	ecc *eccPool
	dom *sim.Domain // the channel's domain; nil in serial mode
	hub *sim.Domain // nil in serial mode
}

// post runs fn on the lane's domain, sent from the hub.
func (l *lane) post(fn func()) { l.hub.Post(l.dom, handoff, fn) }

// onHub wraps a hub continuation so that calling the wrapper on the lane's
// domain delivers fn on the hub. nil stays nil so optional callbacks pass
// through.
func (l *lane) onHub(fn func()) func() {
	if fn == nil {
		return nil
	}
	return func() { l.dom.Post(l.hub, handoff, fn) }
}

// onLane wraps fn, to be called on l's domain, so that it runs on lane to's
// domain. Serial mode and same-lane calls need no wrapper.
func (l *lane) onLane(to *lane, fn func()) func() {
	if l.dom == nil || l == to {
		return fn
	}
	return func() { l.dom.Post(to.dom, handoff, fn) }
}

// erase reclaims a block.
func (l *lane) erase(die, plane, block int) {
	if l.dom == nil {
		l.eraseNow(die, plane, block)
		return
	}
	l.post(func() { l.eraseNow(die, plane, block) })
}

func (l *lane) eraseNow(die, plane, block int) {
	if err := l.ch.Erase(die, plane, block, nil); err != nil {
		panic(fmt.Sprintf("core: erase dispatch failed: %v", err))
	}
}

// program enqueues a multi-plane program of addrs, gcPages of them GC
// relocations. prep is the controller's prep stage; nil means the batch's
// ECC encode on the lane's pool. done fires on the hub when the array
// operation completes. The sharded branch copies addrs and spans, because
// the post runs after the caller has reused its buffers.
func (l *lane) program(die int, addrs []nand.Addr, spans []*telemetry.Span, gcPages int, prep func(ready func()), done func()) {
	if l.dom == nil {
		l.programNow(die, addrs, spans, gcPages, prep, done)
		return
	}
	own := append([]nand.Addr(nil), addrs...)
	ownSpans := append([]*telemetry.Span(nil), spans...)
	hubDone := l.onHub(done)
	l.post(func() { l.programNow(die, own, ownSpans, gcPages, prep, hubDone) })
}

// programNow builds the default encode prep itself, so in serial mode that
// closure never leaves the stack.
func (l *lane) programNow(die int, addrs []nand.Addr, spans []*telemetry.Span, gcPages int, prep func(ready func()), done func()) {
	if prep == nil {
		n := len(addrs)
		prep = func(ready func()) { l.ecc.encode(n, ready) }
	}
	if err := l.ch.WriteMultiPrepGC(die, addrs, l.p.pageBytes, spans, gcPages, prep, done); err != nil {
		panic(fmt.Sprintf("core: program dispatch failed: %v", err))
	}
}

// relocate enqueues the program half of a mapper GC copy at die/a. Its prep
// stage reads, decodes and re-encodes the source page on lane src and hands
// the data back to this lane, so the program keeps its place in allocation
// order while the data dependency still costs real time. The whole one-page
// batch is a relocation: its busy time lands in the gc_read/gc_program op
// kinds of the utilization timeline.
func (l *lane) relocate(die int, a nand.Addr, src *lane, srcDie int, srcAddr nand.Addr) {
	prep := func(ready func()) {
		if l.dom == nil || l == src {
			src.relocRead(l, srcDie, srcAddr, ready)
			return
		}
		l.dom.Post(src.dom, handoff, func() { src.relocRead(l, srcDie, srcAddr, ready) })
	}
	l.program(die, []nand.Addr{a}, nil, 1, prep, nil)
}

// relocRead runs on l's domain: GC read, decode, re-encode, then ready on
// lane dst.
func (l *lane) relocRead(dst *lane, die int, a nand.Addr, ready func()) {
	back := l.onLane(dst, ready)
	l.gcReadNow(die, a, func() { l.ecc.encode(1, back) })
}

// read senses one page for a host or drain read: first-touch preload during
// replay, the array read with stage attribution onto sp (nil skips it), the
// ECC decode, then done on the hub. lba only names the page in a fault.
func (l *lane) read(die int, a nand.Addr, sp *telemetry.Span, lba int64, done func()) {
	if l.dom == nil {
		l.readNow(die, a, sp, lba, done)
		return
	}
	hubDone := l.onHub(done)
	l.post(func() { l.readNow(die, a, sp, lba, hubDone) })
}

func (l *lane) readNow(die int, a nand.Addr, sp *telemetry.Span, lba int64, done func()) {
	l.p.lazyPreloadPage(l.idx, die, a, lba)
	if err := l.ch.ReadTraced(die, a, l.p.pageBytes, sp, func() { l.ecc.decode(1, done) }); err != nil {
		panic(fmt.Sprintf("core: read dispatch failed: %v", err))
	}
}

// gcRead reads and decodes a GC relocation source page; done fires on the
// hub.
func (l *lane) gcRead(die int, a nand.Addr, done func()) {
	if l.dom == nil {
		l.gcReadNow(die, a, done)
		return
	}
	hubDone := l.onHub(done)
	l.post(func() { l.gcReadNow(die, a, hubDone) })
}

func (l *lane) gcReadNow(die int, a nand.Addr, done func()) {
	if err := l.ch.ReadGC(die, a, l.p.pageBytes, func() { l.ecc.decode(1, done) }); err != nil {
		panic(fmt.Sprintf("core: gc read dispatch failed: %v", err))
	}
}

// advanceOnHub is the sharded channel's span sink. Spans belong to the hub
// (host commands mutate them there), so stage advances observed on the
// channel hop home as messages. Advance is a monotonic watermark per stage,
// so the barrier's deterministic merge order makes the application order
// well defined.
func (l *lane) advanceOnHub(sp *telemetry.Span, st telemetry.Stage, at sim.Time) {
	l.dom.Post(l.hub, handoff, func() { sp.Advance(st, at) })
}
