package main

import (
	"syscall"
	"time"
	"unsafe"
)

// Host times are CPU time. On a shared virtual machine the hypervisor's
// steal moves wall time by ±15% from run to run, and the sweep's wall time
// at two workers on two vCPUs also moves with how its last points happen to
// overlap. CPU time leaves both out; what drift it keeps, the speed probe
// (hostspeed_linux.go) scales away.

const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// processCPU is the CPU time of every thread of the process so far,
// garbage-collector workers included.
func processCPU() time.Duration { return cpuClock(clockProcessCPU) }

// threadCPU is the CPU time of the calling OS thread so far; callers lock
// their goroutine to the thread around the span they time.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error()) // the clock ids are constants; failure is a bug
	}
	return time.Duration(ts.Nano())
}
