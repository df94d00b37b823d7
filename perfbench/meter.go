package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// meter accumulates the wall time and the process CPU time (user plus
// system, all threads) of the calls it times.
type meter struct {
	wall, cpu time.Duration
}

// cpuTime is the CPU time the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// time runs fn and adds its wall and CPU time.
func (m *meter) time(fn func() error) error {
	w0, c0 := time.Now(), cpuTime()
	err := fn()
	m.cpu += cpuTime() - c0
	m.wall += time.Since(w0)
	return err
}

// hostTicks reads the machine's CPU time counters from /proc/stat, all
// processors summed: the total and the part a hypervisor stole from this
// virtual machine. Both are 0 without procfs.
func hostTicks() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}
