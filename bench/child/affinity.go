package child

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// CPUSet is a set of CPU numbers, as the kernel's affinity mask.
type CPUSet [16]uint64 // 1024 CPUs

// Has reports whether cpu is in the set.
func (s *CPUSet) Has(cpu int) bool { return s[cpu/64]&(1<<(cpu%64)) != 0 }

// Add puts cpu into the set.
func (s *CPUSet) Add(cpu int) { s[cpu/64] |= 1 << (cpu % 64) }

// List returns the CPUs in the set, ascending.
func (s *CPUSet) List() []int {
	var out []int
	for cpu := 0; cpu < len(s)*64; cpu++ {
		if s.Has(cpu) {
			out = append(out, cpu)
		}
	}
	return out
}

// Allowed returns the CPUs the calling thread may run on.
func Allowed() (CPUSet, error) {
	var s CPUSet
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if errno != 0 {
		return s, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	return s, nil
}

func setAffinity(tid int, s *CPUSet) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s)))
	if errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
	}
	return nil
}

// PinSelf moves every thread of this process onto the CPUs of s; threads
// started later inherit it from the thread that starts them.
func PinSelf(s CPUSet) error {
	// A thread created while the first pass runs may have copied its
	// creator's old mask; the second pass catches it.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if err := setAffinity(tid, &s); err != nil && pass == 1 {
				if _, gone := os.Stat("/proc/self/task/" + t.Name()); gone == nil {
					return err
				}
			}
		}
	}
	return nil
}

// startOn starts cmd so that the child runs on the CPUs of s from its very
// first instruction — a Go child then sizes GOMAXPROCS from that set. The
// mask is inherited across fork, so the forking thread borrows it for the
// duration of the fork.
func startOn(s *CPUSet, start func() error) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	mine, err := Allowed()
	if err != nil {
		return err
	}
	if err := setAffinity(0, s); err != nil {
		return err
	}
	startErr := start()
	if err := setAffinity(0, &mine); err != nil && startErr == nil {
		return err
	}
	return startErr
}
