//go:build linux

package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The daemon under test is confined to one processor and the benchmark's own
// process to the others, so that no more than one processor is ever busy for
// long. The machines this runs on give a guest two virtual processors and,
// about a third of the time, one hardware thread between them: two spinning
// threads then each run at half their solo speed, for seconds on end, while a
// single thread never notices. A daemon spread over both (ingest beside two
// analysis workers beside the generator) ran a quarter slower in those
// stretches, whole runs at a time, and ten runs of one build spread by that
// quarter. On one processor it is the same program at the same speed whichever
// way the host has laid the guest out.

// cpuSet is a kernel CPU affinity mask.
type cpuSet [16]uint64

func (s *cpuSet) has(cpu int) bool { return s[cpu/64]&(1<<(cpu%64)) != 0 }
func (s *cpuSet) set(cpu int)      { s[cpu/64] |= 1 << (cpu % 64) }
func (s *cpuSet) clear(cpu int)    { s[cpu/64] &^= 1 << (cpu % 64) }

// last is the highest-numbered processor in the set, or -1.
func (s *cpuSet) last() int {
	for cpu := len(s)*64 - 1; cpu >= 0; cpu-- {
		if s.has(cpu) {
			return cpu
		}
	}
	return -1
}

func getAffinity(tid int) (cpuSet, error) {
	var s cpuSet
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if e != 0 {
		return s, fmt.Errorf("sched_getaffinity: %w", e)
	}
	return s, nil
}

func setAffinity(tid int, s cpuSet) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if e != 0 {
		return fmt.Errorf("sched_setaffinity: %w", e)
	}
	return nil
}

// The processors this process was allowed at the start, divided: the last one
// for the daemon, the rest for the benchmark. The split is kept because the
// benchmark's own mask no longer shows the daemon's processor once it is
// confined.
var daemonCPUs, generatorCPUs cpuSet

// confineGenerator moves every thread of this process onto the generator's
// processors; threads started later inherit that. It is a no-op the second
// time.
func confineGenerator() error {
	if daemonCPUs.last() >= 0 {
		return nil
	}
	all, err := getAffinity(0)
	if err != nil {
		return err
	}
	cpu := all.last()
	rest := all
	rest.clear(cpu)
	if cpu < 0 || rest.last() < 0 {
		return errors.New("fewer than two processors to divide")
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread that has exited since the listing is not an error.
		if err := setAffinity(tid, rest); err != nil && !errors.Is(err, syscall.ESRCH) {
			return err
		}
	}
	daemonCPUs.set(cpu)
	generatorCPUs = rest
	return nil
}

// onDaemonCPU runs start, which forks the daemon, with the calling thread on
// the daemon's processor, so the child inherits it, and brings the thread
// back. The caller has locked its goroutine to the thread.
func onDaemonCPU(start func() error) error {
	if daemonCPUs.last() < 0 {
		return start() // the processors could not be divided
	}
	if err := setAffinity(0, daemonCPUs); err != nil {
		return err
	}
	err := start()
	if back := setAffinity(0, generatorCPUs); err == nil {
		err = back
	}
	return err
}

// daemonProcessors is how many processors the daemon may run on: one, unless
// they could not be divided.
func daemonProcessors() int {
	if daemonCPUs.last() < 0 {
		return runtime.NumCPU()
	}
	return 1
}
