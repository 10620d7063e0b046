package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dohpool/bench/trace"
)

// binDir holds dohpoold and benchstack, built once from the tree the test
// runs in — the same two children the benchmark proper drives.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dohbench-smoke-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "dohpool/bench/cmd/benchstack", "dohpool/cmd/dohpoold")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building the benchmark's children:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// logBuffer collects Config.Log in a test: several children's stderr are
// copied into it at once.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// smoke runs one workload with 200 ms segments.
func smoke(t *testing.T, wl *Workload, traced bool) *Outcome {
	t.Helper()
	var log logBuffer
	cfg := &Config{BinDir: binDir, OutDir: t.TempDir(), Seed: 7, Measure: Segments * 200 * time.Millisecond, Trace: traced, Log: &log}
	out, err := Run(context.Background(), cfg, wl)
	if err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	assertNoChildren(t, binDir)
	return out
}

// assertNoChildren fails if a process started from dir is still around.
func assertNoChildren(t *testing.T, dir string) {
	t.Helper()
	cmdlines, _ := filepath.Glob("/proc/[0-9]*/cmdline")
	for _, path := range cmdlines {
		b, err := os.ReadFile(path)
		if err == nil && bytes.HasPrefix(b, []byte(dir)) {
			t.Errorf("left behind: %s (%s)", strings.ReplaceAll(string(b), "\x00", " "), path)
		}
	}
}

func TestEveryWorkload(t *testing.T) {
	for i := range Workloads {
		wl := &Workloads[i]
		t.Run(wl.Name, func(t *testing.T) {
			// The per-layer pass costs about three seconds of floors and
			// probes; under -short only the workloads whose layer values
			// are asserted below pay it.
			traced := !testing.Short() || wl.Name == "udp_hit" || wl.Name == "miss_cold" || wl.Name == "lib_hit"
			out := smoke(t, wl, traced)
			spec := loadSpec(t)

			if out.Attempted == 0 {
				t.Fatal("nothing attempted")
			}
			if out.Failed != 0 {
				t.Errorf("%d of %d queries failed: %v", out.Failed, out.Attempted, out.Causes)
			}
			for _, m := range spec.EndToEnd {
				if v, ok := out.E2E[m.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v (present %v)", m.Name, v, ok)
				}
			}
			if len(out.Seg) != Segments {
				t.Errorf("%d segments", len(out.Seg))
			}
			checkResultLine(t, out, spec, false, len(spec.EndToEnd))
			if !traced {
				return
			}

			for _, m := range spec.PerLayer {
				p, ok := out.Layers[m.Name]
				if !ok {
					t.Errorf("layer metric %s missing", m.Name)
					continue
				}
				// The library workload has no frontend; everything else
				// must resolve against today's /metrics.
				wantNull := wl.kind == kindLib && strings.HasPrefix(m.Name, "frontend.")
				if (p == nil) != wantNull {
					t.Errorf("layer metric %s: null %v, want null %v", m.Name, p == nil, wantNull)
				}
			}
			checkResultLine(t, out, spec, true, len(spec.PerLayer))
			if len(out.Layers) != len(spec.PerLayer) || len(out.E2E) != len(spec.EndToEnd) {
				t.Errorf("the run measured %d end-to-end and %d per-layer metrics, BENCHMARK.json names %d and %d",
					len(out.E2E), len(out.Layers), len(spec.EndToEnd), len(spec.PerLayer))
			}
			checkTraceFile(t, out)

			layer := func(name string) float64 {
				if p := out.Layers[name]; p != nil {
					return *p
				}
				t.Errorf("%s is null", name)
				return 0
			}
			// Each workload exercises the layer it claims and bypasses the
			// other.
			switch wl.Name {
			case "udp_hit":
				if v := layer("frontend.fast_path_share"); v < 0.99 {
					t.Errorf("udp_hit fast_path_share = %v, want >= 0.99", v)
				}
				if v := layer("engine.gens_per_q"); v > 0.001 {
					t.Errorf("udp_hit gens_per_q = %v, want ~0", v)
				}
				// Every flow has a serving socket, and so a reader, of its own.
				if v := layer("frontend.udp_sockets_busy"); v != float64(Workers()) {
					t.Errorf("udp_hit udp_sockets_busy = %v, want %d", v, Workers())
				}
			case "udp_flood":
				if v := layer("frontend.udp_sockets_busy"); v != float64(Workers()) {
					t.Errorf("udp_flood udp_sockets_busy = %v, want %d", v, Workers())
				}
			case "stream_hit", "doh_hit":
				if v := layer("frontend.udp_sockets_busy"); v != 0 {
					t.Errorf("%s udp_sockets_busy = %v: the UDP layers should idle", wl.Name, v)
				}
			case "miss_cold":
				if v := layer("dnscache.hit_share"); v > 0.01 {
					t.Errorf("miss_cold hit_share = %v, want ~0", v)
				}
				if v := layer("engine.gens_per_q"); v < 0.95 || v > 1.05 {
					t.Errorf("miss_cold gens_per_q = %v, want ~1", v)
				}
				if v := layer("frontend.fast_path_share"); v > 0.01 {
					t.Errorf("miss_cold fast_path_share = %v, want ~0", v)
				}
				if v := layer("health.exchanges_per_gen"); v < 2.9 {
					t.Errorf("miss_cold exchanges_per_gen = %v, want >= 3", v)
				}
			case "lib_hit":
				if v := layer("dnscache.hit_share"); v < 0.99 {
					t.Errorf("lib_hit hit_share = %v, want ~1", v)
				}
			}
		})
	}
}

func checkResultLine(t *testing.T, out *Outcome, spec *Spec, traced bool, wantMetrics int) {
	t.Helper()
	line, err := out.ResultLine(spec, traced)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   *bool   `json:"correct"`
		Attempted *uint64 `json:"attempted"`
		Failed    *uint64 `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("result line %s: %v", line, err)
	}
	if got.Correct == nil || got.Attempted == nil || got.Failed == nil {
		t.Fatalf("result line lacks a key: %s", line)
	}
	if *got.Correct != (out.Failed == 0) || *got.Attempted != out.Attempted {
		t.Errorf("result line disagrees with the outcome: %s", line)
	}
	if len(got.Metrics) != wantMetrics {
		t.Errorf("%d metrics in the result line, want %d", len(got.Metrics), wantMetrics)
	}
	for name, m := range got.Metrics {
		if m.Value == nil || m.Unit == "" {
			t.Errorf("metric %s lacks value or unit", name)
		}
	}
	if bytes.ContainsAny(line, "\n") {
		t.Error("result is not one line")
	}
}

func checkTraceFile(t *testing.T, out *Outcome) {
	t.Helper()
	data, err := os.ReadFile(out.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	var f trace.File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.Requests == 0 || f.Kept == 0 {
		t.Fatalf("trace has %d requests, %d kept", f.Requests, f.Kept)
	}
	segments := map[string]bool{}
	names := map[string]int{}
	for _, s := range f.Spans {
		names[s.Name]++
		if s.Name == "segment" {
			segments[s.ID] = true
		}
		if s.EndNs < s.StartNs {
			t.Fatalf("span %s ends before it starts", s.ID)
		}
	}
	for _, phase := range trace.Phases {
		if names[phase] != f.Kept {
			t.Errorf("%d %s spans for %d kept requests", names[phase], phase, f.Kept)
		}
		if _, ok := f.SelfNs[phase]; !ok {
			t.Errorf("no self time for %s", phase)
		}
	}
	if len(segments) == 0 {
		t.Error("no segment span")
	}
	parented := 0
	for _, s := range f.Spans {
		if s.Name != "segment" && segments[s.Parent] {
			parented++
		}
	}
	if parented == 0 {
		t.Error("no request span has a segment as parent")
	}
	probes := 0
	for name := range names {
		if strings.HasPrefix(name, "probe:") {
			probes++
		}
	}
	if probes == 0 {
		t.Error("no probe spans")
	}
}

// A run that cannot complete must still reap what it started.
func TestFailedRunLeavesNoChildren(t *testing.T) {
	// A daemon that dies at once: benchstack is real, dohpoold is not.
	broken := t.TempDir()
	stack, err := os.ReadFile(filepath.Join(binDir, "benchstack"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(broken, "benchstack"), stack, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(broken, "dohpoold"), []byte("#!/bin/sh\necho no >&2\nexit 1\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	var log logBuffer
	cfg := &Config{BinDir: broken, OutDir: t.TempDir(), Seed: 1, Measure: time.Second, Log: &log}
	start := time.Now()
	_, err = Run(context.Background(), cfg, &Workloads[0])
	if err == nil {
		t.Fatal("a run against a daemon that exits at once succeeded")
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("failing took %v; a dead daemon should be noticed at once", took)
	}
	assertNoChildren(t, broken)
	if entries, _ := os.ReadDir(cfg.OutDir); len(entries) != 0 {
		t.Errorf("scratch files left in the output directory: %v", entries)
	}
}

func TestCancelledRunStopsAndReaps(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var log logBuffer
	cfg := &Config{BinDir: binDir, OutDir: t.TempDir(), Seed: 1, Measure: time.Minute, Log: &log}
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, cfg, &Workloads[0])
		done <- err
	}()
	time.Sleep(500 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Error("a cancelled run reported success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	assertNoChildren(t, binDir)
}
