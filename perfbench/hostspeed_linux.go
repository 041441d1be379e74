package main

import (
	"crypto/sha256"
	"math"
	"math/rand/v2"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed drifts: on a shared 2-vCPU virtual machine the CPU time
// of one fixed evaluation moved by up to 15% either way over minutes, with
// the same seed and binary, as other machines' load came and went. Longer
// runs do not average that out; the medians of 18-second blocks spread as
// widely as those of 5-second ones. A speed probe runs a fixed reference
// kernel between the timed evaluations of a run, and the run's host times
// are scaled by how fast the kernel ran then: a time is reported in the
// seconds it would take on a host where the kernel takes its nominal time.
// The kernel runs none of the repository's code, so a change to the
// simulator moves the scaled times as much as the raw ones; the scaling
// only cancels what the host did. Over ten seeds per workload the scaled
// medians spread 0.05-0.11 of their median, the unscaled ones 0.10-0.17.

const (
	probeHashBytes  = 1 << 20 // sha256 input: cache-resident, ALU-bound
	probeHashPasses = 24
	probeChaseInts  = 4 << 20 // 16 MiB pointer-chase ring: memory-latency-bound
	probeChaseSteps = 150_000
	// probeNominal is about the kernel's round time, in seconds, on a
	// 2-vCPU linux/amd64 VM with go1.24. It only sets the scale's unit;
	// any fixed value compares commits equally.
	probeNominal = 0.022
	// probeEvery is the wall time an evaluation runs per probe round that
	// follows it, up to probeBurst rounds at once.
	probeEvery = 500 * time.Millisecond
	probeBurst = 4
)

// speedProbe times the reference kernel. Its buffers are mapped outside the
// Go heap, so they add nothing to heap_peak_mb, alloc_mb or the collector's
// work, and a round allocates nothing.
type speedProbe struct {
	hash   []byte
	chase  []int32
	at     int32
	last   time.Time
	rounds []float64 // thread CPU seconds of each round
}

func newSpeedProbe() (*speedProbe, error) {
	mem, err := syscall.Mmap(-1, 0, probeHashBytes+4*probeChaseInts,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, err
	}
	p := &speedProbe{
		hash:  mem[:probeHashBytes],
		chase: unsafe.Slice((*int32)(unsafe.Pointer(&mem[probeHashBytes])), probeChaseInts),
	}
	// One cycle through every slot (Sattolo), from a fixed seed, so every
	// run walks the same ring.
	r := rand.New(rand.NewPCG(1, 2))
	for i := range p.chase {
		p.chase[i] = int32(i)
	}
	for i := len(p.chase) - 1; i > 0; i-- {
		j := r.IntN(i)
		p.chase[i], p.chase[j] = p.chase[j], p.chase[i]
	}
	for i := range p.hash {
		p.hash[i] = byte(i)
	}
	return p, nil
}

// close unmaps the probe's buffers.
func (p *speedProbe) close() error {
	mem := p.hash[:probeHashBytes+4*probeChaseInts]
	p.hash, p.chase = nil, nil
	return syscall.Munmap(mem)
}

// round runs the kernel once on a locked thread and records the geometric
// mean of its two halves' thread CPU times. Callers collect garbage first,
// so no collection cycle shares the memory bus with it.
func (p *speedProbe) round() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	for i := 0; i < probeHashPasses; i++ {
		sum := sha256.Sum256(p.hash)
		p.hash[i] ^= sum[0]
	}
	t1 := threadCPU()
	at := p.at
	for i := 0; i < probeChaseSteps; i++ {
		at = p.chase[at]
	}
	p.at = at
	t2 := threadCPU()
	p.rounds = append(p.rounds, math.Sqrt((t1-t0).Seconds()*(t2-t1).Seconds()))
	p.last = time.Now()
}

// maybe runs a round for each probeEvery since the last one, at most
// probeBurst, so long evaluations are matched by more rounds. A nil probe
// does nothing.
func (p *speedProbe) maybe() {
	if p == nil {
		return
	}
	for n := min(int(time.Since(p.last)/probeEvery), probeBurst); n > 0; n-- {
		p.round()
	}
}

// scale is the factor that turns this run's CPU seconds into nominal-host
// seconds: the nominal round time over the run's median round time.
func (p *speedProbe) scale() float64 {
	return probeNominal / median(p.rounds)
}
