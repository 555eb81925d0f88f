//go:build linux

package main

import (
	"syscall"
	"time"
	"unsafe"
)

const clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID

// processCPUTime is the CPU time this process has used, user and system,
// over all its threads, to the nanosecond. The kernel leaves out time the
// hypervisor gave this machine's CPUs to other guests (steal) and time
// other processes ran, so unlike wall time it does not grow when a shared
// host is busy.
func processCPUTime() (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, e
	}
	return time.Duration(ts.Nano()), nil
}

// cpuTime is processCPUTime for a process that has already read the clock
// once (run checks it before any job), so a failure here is a bug.
func cpuTime() time.Duration {
	d, err := processCPUTime()
	if err != nil {
		panic("perfbench: clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + err.Error())
	}
	return d
}
