package main

import (
	"syscall"
	"time"
)

// sleepFor blocks the calling goroutine for d with the kernel's timer
// precision. time.Sleep wakes up to a millisecond late when the process
// is idle, which would dominate the open-loop generator's latency
// figures; a nanosleep wakes within the default 50µs timer slack.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
