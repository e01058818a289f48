//go:build !linux

package main

import "time"

// sleep waits for d; see sleep_linux.go for why Linux differs.
func sleep(d time.Duration) { time.Sleep(d) }
