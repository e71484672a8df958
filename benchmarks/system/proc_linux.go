package main

import "syscall"

// childAttr has the kernel SIGTERM a daemon when the benchmark process dies
// without running its teardown (a crash in a worker goroutine, SIGKILL).
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
}
