package main

import (
	"errors"
	"syscall"
	"time"
)

// sleep blocks the calling thread for d with nanosleep(2). Go's timers
// wake through the network poller, whose epoll timeout has millisecond
// resolution on Linux, so time.Sleep overshoots a sub-millisecond wait
// by most of a millisecond; nanosleep overshoots by the kernel's timer
// slack (about 50 µs), which keeps the generator's lateness small next
// to a cache hit.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for errors.Is(syscall.Nanosleep(&ts, &ts), syscall.EINTR) {
	}
}
