package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
)

// hostInfo is the fingerprint printed with every result, so numbers from
// different machines are never compared by accident.
type hostInfo struct {
	Kernel    string         `json:"kernel"`
	NProc     int            `json:"nproc"`
	NumaNodes int            `json:"numa_nodes"`
	Go        string         `json:"go"`
	Carriers  map[string]int `json:"carriers"`  // sessions per carrier actually used
	Submitter string         `json:"submitter"` // command-channel submission backend
	// StealPct is the share of CPU time the hypervisor gave to other guests
	// during the (first) timed window: a run with a high value ran on a
	// disturbed host.
	StealPct float64 `json:"steal_pct"`
}

func fingerprint() hostInfo {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	nodes, _ := filepath.Glob("/sys/devices/system/node/node[0-9]*")
	if len(nodes) == 0 {
		nodes = []string{"node0"} // no sysfs topology: one node
	}
	return hostInfo{
		Kernel:    strings.TrimSpace(string(kernel)),
		NProc:     runtime.NumCPU(),
		NumaNodes: len(nodes),
		Go:        runtime.Version(),
		Carriers:  map[string]int{},
		Submitter: "none",
	}
}

// cpuTicks returns the host's total and stolen CPU ticks from /proc/stat.
func cpuTicks() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// peakRSSMB is the driver's resident high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// sentinelMaxRSSMB is the largest maxrss among reaped children.
func sentinelMaxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func cpuOf(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// driverCPU is this process's user+system time: the clients, and for the
// thread strategy the sentinels and the in-process file server as well.
func driverCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return cpuOf(ru)
}

// sentinelCPU is the user+system time of every sentinel child so far: reaped
// ones through RUSAGE_CHILDREN, live ones from /proc. A child reaped between
// two readings moves its time from the second term to the first, so the
// difference of two readings is the CPU the sentinels spent in between.
func sentinelCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru) // cannot fail for RUSAGE_CHILDREN
	total := cpuOf(ru)
	const tick = 10 * time.Millisecond // USER_HZ is 100 on Linux
	for _, pid := range childPIDs() {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			continue // exited since listed
		}
		// Fields after the parenthesised command: state is field 3, utime
		// and stime are fields 14 and 15.
		i := bytes.LastIndexByte(b, ')')
		f := strings.Fields(string(b[i+1:]))
		if len(f) < 13 {
			continue
		}
		ut, _ := strconv.ParseInt(f[11], 10, 64)
		st, _ := strconv.ParseInt(f[12], 10, 64)
		total += time.Duration(ut+st) * tick
	}
	return total
}

// childPIDs lists this process's live children.
func childPIDs() []int {
	var pids []int
	tasks, _ := filepath.Glob("/proc/self/task/*/children")
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue
		}
		for _, f := range strings.Fields(string(b)) {
			if pid, err := strconv.Atoi(f); err == nil {
				pids = append(pids, pid)
			}
		}
	}
	return pids
}

// leakBase is the process state a workload must return to after teardown.
type leakBase struct {
	fds, goroutines int
}

func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// primeRuntime makes the runtime allocate the descriptors it keeps for the
// process lifetime (the network poller's), so they are not mistaken for a
// leak of the first workload.
func primeRuntime() error {
	r, w, err := os.Pipe()
	if err != nil {
		return fmt.Errorf("prime runtime: %w", err)
	}
	r.SetReadDeadline(time.Now())
	r.Close()
	w.Close()
	return nil
}

func snapshotLeaks() leakBase {
	return leakBase{fds: openFDs(), goroutines: runtime.NumGoroutine()}
}

// checkTeardown drains the sentinel pool and the shared segments, then waits
// up to a few seconds for every sentinel child to be reaped and for the
// descriptor and goroutine counts to fall back to base. Anything left over
// is a leak and fails the run.
func checkTeardown(base leakBase) error {
	core.DrainSentinelPool()
	core.DrainSharedSegments()
	deadline := time.Now().Add(5 * time.Second)
	for {
		// Finalizers close descriptors of unreachable objects (io_uring
		// rings); run them before counting.
		runtime.GC()
		now := snapshotLeaks()
		kids := childPIDs()
		if len(kids) == 0 && now.fds <= base.fds && now.goroutines <= base.goroutines {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("teardown leak: %d live sentinel children, fds %d (was %d), goroutines %d (was %d)",
				len(kids), now.fds, base.fds, now.goroutines, base.goroutines)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
