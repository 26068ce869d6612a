package main

import (
	"fmt"
	"sort"
	"syscall"
	"time"
)

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// peakRSSMB is the process's peak resident set size so far, in MiB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

var calibSink uint64

// calibrate times a fixed integer kernel that calls no program code. Its
// time tracks the host's speed, so a reader can tell host drift from a
// regression; it is reported as a diagnostic only.
func calibrate() time.Duration {
	start := time.Now()
	x, acc := uint64(1), uint64(0)
	for i := 0; i < 1<<22; i++ {
		x = splitmix64(x)
		acc += x >> (x & 31)
	}
	calibSink += acc
	return time.Since(start)
}

// median of durations, in seconds.
func medianSeconds(ds []time.Duration) float64 {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2].Seconds()
	}
	return (s[n/2-1] + s[n/2]).Seconds() / 2
}
