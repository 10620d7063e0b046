package child

import (
	"io"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestStopKillsAndReaps(t *testing.T) {
	p, err := Start(io.Discard, nil, "/bin/sh", "-c", "echo up; exec sleep 100")
	if err != nil {
		t.Fatal(err)
	}
	if line, err := p.Stdout.ReadString('\n'); err != nil || line != "up\n" {
		t.Fatalf("stdout %q, %v", line, err)
	}
	if !p.Alive() {
		t.Fatal("child not alive after start")
	}
	pid := p.Pid()
	start := time.Now()
	p.Stop(20 * time.Millisecond) // sleep ignores its stdin: this takes the kill
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("Stop took %v", took)
	}
	if _, err := os.Stat("/proc/" + strconv.Itoa(pid)); err == nil {
		t.Errorf("pid %d still exists after Stop", pid)
	}
	p.Stop(0) // a second Stop is a no-op
}

func TestStopLetsAChildLeaveOnEndOfInput(t *testing.T) {
	p, err := Start(io.Discard, nil, "/bin/sh", "-c", "cat >/dev/null; echo bye")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	p.Stop(5 * time.Second)
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("a child that exits on end-of-input took %v to stop", took)
	}
}

func TestAliveSeesAChildThatDiedOnItsOwn(t *testing.T) {
	var stderr strings.Builder
	p, err := Start(&stderr, nil, "/bin/sh", "-c", "echo broken >&2; exit 3")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop(0)
	deadline := time.Now().Add(5 * time.Second)
	for p.Alive() {
		if time.Now().After(deadline) {
			t.Fatal("exited child still reported alive")
		}
		time.Sleep(time.Millisecond)
	}
	p.Stop(0)
	if !strings.Contains(stderr.String(), "broken") {
		t.Errorf("stderr not forwarded: %q", stderr.String())
	}
}

func TestStartReportsAMissingBinary(t *testing.T) {
	if _, err := Start(io.Discard, nil, "/no/such/binary"); err == nil {
		t.Fatal("no error for a missing binary")
	}
}

// A child started on a CPU set sees exactly that set, and the starting
// thread gets its own back.
func TestStartOnCPUSet(t *testing.T) {
	allowed, err := Allowed()
	if err != nil {
		t.Skip(err)
	}
	cpus := allowed.List()
	var one CPUSet
	one.Add(cpus[len(cpus)-1])
	p, err := Start(io.Discard, &one, "/bin/sh", "-c", "grep Cpus_allowed_list /proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop(time.Second)
	line, err := p.Stdout.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(strings.TrimPrefix(line, "Cpus_allowed_list:")); got != strconv.Itoa(cpus[len(cpus)-1]) {
		t.Errorf("child allowed on %q, want %d", got, cpus[len(cpus)-1])
	}
	after, err := Allowed()
	if err != nil {
		t.Fatal(err)
	}
	if after != allowed {
		t.Errorf("the starting thread's affinity changed: %v, was %v", after.List(), allowed.List())
	}
}

func TestPinSelfAndBack(t *testing.T) {
	allowed, err := Allowed()
	if err != nil {
		t.Skip(err)
	}
	var first CPUSet
	first.Add(allowed.List()[0])
	if err := PinSelf(first); err != nil {
		t.Fatal(err)
	}
	now, _ := Allowed()
	if err := PinSelf(allowed); err != nil {
		t.Fatal(err)
	}
	if now != first {
		t.Errorf("pinned to %v, want %v", now.List(), first.List())
	}
	if back, _ := Allowed(); back != allowed {
		t.Errorf("restored to %v, want %v", back.List(), allowed.List())
	}
}
