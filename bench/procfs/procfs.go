// Package procfs samples what the kernel accounts to a process —
// CPU time, peak memory, threads, context switches — from
// /proc/<pid>/{stat,status}, so the daemon is measured from outside.
package procfs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// Tick is the unit of the CPU times in /proc/<pid>/stat. USER_HZ is 100
// on every Linux architecture, whatever the kernel's own HZ.
const Tick = 10 * time.Millisecond

// Sample is one reading. CPU times and context switches only grow; a
// measurement is the difference of two samples.
type Sample struct {
	User, Sys time.Duration // whole process, all threads
	Threads   int
	HWMkB     uint64 // peak resident set (VmHWM)
	// Voluntary and Involuntary context switches, summed over the threads
	// alive now (the kernel keeps them per thread).
	Voluntary, Involuntary uint64
}

// CPU is user plus system time.
func (s Sample) CPU() time.Duration { return s.User + s.Sys }

// Read samples process pid.
func Read(pid int) (Sample, error) { return readFrom(filepath.Join("/proc", strconv.Itoa(pid))) }

func readFrom(dir string) (Sample, error) {
	var s Sample
	stat, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return s, err
	}
	if s.User, s.Sys, err = ParseStat(stat); err != nil {
		return s, err
	}
	status, err := os.ReadFile(filepath.Join(dir, "status"))
	if err != nil {
		return s, err
	}
	fields := ParseStatus(status)
	s.Threads = int(fields["Threads"])
	s.HWMkB = fields["VmHWM"]
	tasks, err := filepath.Glob(filepath.Join(dir, "task", "*", "status"))
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		f := ParseStatus(b)
		s.Voluntary += f["voluntary_ctxt_switches"]
		s.Involuntary += f["nonvoluntary_ctxt_switches"]
	}
	return s, nil
}

// ParseStat extracts utime and stime (fields 14 and 15) from the content
// of /proc/<pid>/stat. The command name, field 2, may itself contain
// spaces and parentheses, so fields are counted from the last ')'.
func ParseStat(stat []byte) (user, sys time.Duration, err error) {
	end := bytes.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, 0, fmt.Errorf("procfs: no command name in stat")
	}
	fields := bytes.Fields(stat[end+1:]) // fields[0] is field 3 (state)
	if len(fields) < 13 {
		return 0, 0, fmt.Errorf("procfs: stat has %d fields after the command name", len(fields))
	}
	u, err := strconv.ParseUint(string(fields[11]), 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("procfs: utime: %w", err)
	}
	s, err := strconv.ParseUint(string(fields[12]), 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("procfs: stime: %w", err)
	}
	return time.Duration(u) * Tick, time.Duration(s) * Tick, nil
}

// ParseStatus returns the numeric fields of /proc/<pid>/status by name;
// a "kB" suffix is dropped, non-numeric fields are left out.
func ParseStatus(status []byte) map[string]uint64 {
	out := make(map[string]uint64)
	for _, line := range bytes.Split(status, []byte{'\n'}) {
		name, rest, ok := bytes.Cut(line, []byte{':'})
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) == 0 || len(f) > 2 || (len(f) == 2 && string(f[1]) != "kB") {
			continue
		}
		if v, err := strconv.ParseUint(string(f[0]), 10, 64); err == nil {
			out[string(name)] = v
		}
	}
	return out
}
