package main

import (
	"syscall"
	"time"
)

// cpuTime is the CPU time the process has used so far, user and system,
// over all its threads. The benchmark's virtual CPUs share a host, and the
// guest kernel keeps the time the host steals from them out of this
// figure; that stolen time moved wall-clock latencies by up to half
// between runs of the same code, which is why the end-to-end request
// costs are CPU time (see phase.endToEnd).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
