// Package child starts the benchmark's helper processes and makes sure
// none of them outlives the runner: every Proc is killed and reaped by
// Stop, and the kernel kills it if the runner dies first.
package child

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// Proc is a running child.
type Proc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	Stdout *bufio.Reader
	once   sync.Once
	done   chan struct{} // closed when Wait has returned
	// Started is the moment just before exec.
	Started time.Time
}

// Start runs path with args. The child's stderr goes to logTo; its stdout
// is the Proc's Stdout for the caller to read; its stdin is a pipe that
// closes when the runner exits, however it exits. With cpus non-nil the
// child is confined to those CPUs from its first instruction; otherwise it
// inherits the starting thread's.
//
// Pdeathsig is delivered when the thread that forked the child exits, so
// callers start children from a goroutine locked to a thread that lives as
// long as the process (main, after runtime.LockOSThread).
func Start(logTo io.Writer, cpus *CPUSet, path string, args ...string) (*Proc, error) {
	cmd := exec.Command(path, args...)
	cmd.Stderr = logTo
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p := &Proc{cmd: cmd, stdin: stdin, Stdout: bufio.NewReader(stdout), done: make(chan struct{}), Started: time.Now()}
	start := cmd.Start
	if cpus != nil {
		start = func() error { return startOn(cpus, cmd.Start) }
	}
	if err := start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", path, err)
	}
	return p, nil
}

// Pid is the child's process ID.
func (p *Proc) Pid() int { return p.cmd.Process.Pid }

// Stop ends the child and waits until it is gone. It first closes the
// child's stdin and gives it grace to leave by itself (the benchmark's own
// helper exits on end-of-input); whatever is left is killed. Stop is safe
// to call more than once.
func (p *Proc) Stop(grace time.Duration) {
	p.once.Do(func() {
		_ = p.stdin.Close()
		go func() {
			_ = p.cmd.Wait() // also closes Stdout: a reader sees end-of-file
			close(p.done)
		}()
		select {
		case <-p.done:
			return
		case <-time.After(grace):
		}
		_ = p.cmd.Process.Kill()
		<-p.done
	})
}

// Alive reports whether the child is still running. One that died on its
// own stays a zombie until Stop reaps it; that counts as dead, so a caller
// waiting for the child to come up can give up at once.
func (p *Proc) Alive() bool {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.Pid()))
	if err != nil {
		return false
	}
	// The state letter follows the parenthesised command name.
	i := bytes.LastIndexByte(b, ')')
	return i >= 0 && i+2 < len(b) && b[i+2] != 'Z'
}
