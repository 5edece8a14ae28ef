package main

import (
	"syscall"
	"unsafe"
)

// clockThreadCPU is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPU = 3

// threadCPU returns the CPU time the calling OS thread has run, in
// nanoseconds. The time a hypervisor gives to other guests is not in it.
// The caller must hold its goroutine on one thread (runtime.LockOSThread).
func threadCPU() int64 {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPU, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + e.Error())
	}
	return ts.Nano()
}
