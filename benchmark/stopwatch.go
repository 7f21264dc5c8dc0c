package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// This file is the benchmark's only source of host time and host resource
// readings. Everything the benchmark reports is host-side harness timing
// of calls into the program under test; no simulated quantity depends on
// it, which is why each wall-clock read below carries a roadlint allow.

// now reads the host clock.
func now() time.Time {
	return time.Now() //roadlint:allow wallclock benchmark harness stopwatch; times calls from outside the program under test
}

// since returns the seconds elapsed since t0.
func since(t0 time.Time) float64 {
	return time.Since(t0).Seconds() //roadlint:allow wallclock benchmark harness stopwatch; times calls from outside the program under test
}

// sleep pauses the generator between polls of a child process.
func sleep(d time.Duration) {
	time.Sleep(d) //roadlint:allow wallclock generator poll pacing at the service edge
}

// after bounds a wait on a child process.
func after(d time.Duration) <-chan time.Time {
	return time.After(d) //roadlint:allow wallclock bounded wait on a child process
}

// clockTick is the kernel's USER_HZ: /proc/<pid>/stat reports CPU time in
// these ticks, and Linux fixes the value exported to user space at 100.
const clockTick = 100

// selfCPU returns this process's user+system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// procCPU returns a live process's user+system CPU seconds, read from
// /proc/<pid>/stat so a delta can be taken around a timed region (Wait4
// rusage only exists once the child has exited).
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(data)
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name (field 2) may contain spaces
// and parentheses, so fields are counted from the last ')'.
func parseStatCPU(data []byte) (float64, error) {
	end := bytes.LastIndexByte(data, ')')
	if end < 0 {
		return 0, fmt.Errorf("malformed stat line")
	}
	fields := strings.Fields(string(data[end+1:]))
	// fields[0] is field 3 (state), so utime and stime sit at 11 and 12.
	if len(fields) < 13 {
		return 0, fmt.Errorf("short stat line: %d fields", len(fields))
	}
	utime, err := strconv.ParseUint(fields[11], 10, 64)
	if err != nil {
		return 0, err
	}
	stime, err := strconv.ParseUint(fields[12], 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(utime+stime) / clockTick, nil
}

// peakRSSMB returns a process's peak resident set (VmHWM) in MiB; pid 0
// reads this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return parseVmHWM(data)
}

func parseVmHWM(status []byte) (float64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) < 1 {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM line")
}
