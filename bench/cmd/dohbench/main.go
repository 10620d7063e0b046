// Command dohbench is the benchmark's runner. It drives the real dohpoold
// binary, started as a child process, over its sockets, and measures it
// from outside: latency and throughput at the generator, CPU and memory
// from /proc/<pid>, per-layer counts from /metrics.
//
//	dohbench -bin DIR [-spec BENCHMARK.json] [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-aa]
//
// BENCHMARK.json is where the metrics' names, units and bounds come from.
//
// With -workload it runs that workload once and prints, as the last line
// of standard output, one JSON object with the end-to-end metrics
// (-trace 0) or the per-layer metrics (-trace 1). Without it, it runs every
// workload that same way, each in a process of its own, and prints a table;
// -aa does so twice and fails if two runs of the same code disagree beyond
// a metric's bound. The report of
// every run goes to standard error. The exit code is non-zero if any
// response was invalid or missing.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"dohpool/bench/runner"
)

func main() {
	// Children are started with Pdeathsig, which fires when the thread
	// that forked them exits: keep main on one thread for good.
	runtime.LockOSThread()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dohbench:", err)
		os.Exit(1)
	}
}

var errInvalid = errors.New("responses were invalid or missing; see the report above")

func run() error {
	var (
		bin      = flag.String("bin", "", "directory holding the dohpoold and benchstack binaries (required)")
		outDir   = flag.String("out", "bench/out", "directory for trace files and scratch files")
		specPath = flag.String("spec", "BENCHMARK.json", "the benchmark contract: the metrics' names, units and bounds")
		workload = flag.String("workload", "", "run only this workload and print the one-line JSON result")
		seed     = flag.Int64("seed", 1, "seed for name picks and mix draws")
		seconds  = flag.Int("seconds", 10, "measuring time per workload, split into 5 segments")
		traceOn  = flag.Int("trace", 0, "1 adds the per-layer pass: counters, spans, floors, probes")
		aa       = flag.Bool("aa", false, "run every workload twice and compare the two runs against the bounds")
	)
	flag.Parse()
	if *bin == "" {
		return errors.New("-bin is required (bench/run.sh builds the binaries and passes it)")
	}
	if *seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	if *aa && (*traceOn != 0 || *workload != "") {
		return errors.New("-aa compares the end-to-end metrics of every workload; run it with -trace 0 and without -workload")
	}
	spec, err := runner.LoadSpec(*specPath)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	cfg := &runner.Config{BinDir: *bin, OutDir: *outDir, Seed: *seed, Measure: time.Duration(*seconds) * time.Second,
		Trace: *traceOn != 0, Log: os.Stderr}

	// A signal cancels the run; Run then unwinds, stopping and reaping its
	// children on the way out.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	if *workload != "" {
		wl, err := runner.Find(*workload)
		if err != nil {
			return err
		}
		out, err := runner.Run(ctx, cfg, wl)
		if err != nil {
			return err
		}
		out.Print(os.Stderr, spec)
		line, err := out.ResultLine(spec, cfg.Trace)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
		if out.Failed > 0 {
			return errInvalid
		}
		return nil
	}

	// Every workload runs in a process of its own, exactly as the driver
	// runs it, so that no run inherits the heap or the threads of another.
	self, err := os.Executable()
	if err != nil {
		return err
	}
	metrics := spec.EndToEnd
	if cfg.Trace {
		metrics = spec.PerLayer
	}
	all := func() ([]*runner.Summary, error) {
		return runAll(ctx, metrics, self, "-bin", *bin, "-out", *outDir, "-spec", *specPath, "-seed", strconv.FormatInt(*seed, 10),
			"-seconds", strconv.Itoa(*seconds), "-trace", strconv.Itoa(*traceOn))
	}
	first, err := all()
	if err != nil {
		return err
	}
	if !*aa {
		return nil
	}
	second, err := all()
	if err != nil {
		return err
	}
	if bad := runner.CompareAA(os.Stdout, first, second, spec.EndToEnd); bad > 0 {
		return fmt.Errorf("A/A: %d workload x metric pairs disagree beyond their bound", bad)
	}
	return nil
}

// runAll runs every workload once, each as `self -workload <name> args...`,
// and prints the table of the metrics their result lines carry.
func runAll(ctx context.Context, metrics []runner.Metric, self string, args ...string) ([]*runner.Summary, error) {
	var sums []*runner.Summary
	invalid := false
	for _, wl := range runner.Workloads {
		cmd := exec.CommandContext(ctx, self, append([]string{"-workload", wl.Name}, args...)...)
		cmd.Stderr = os.Stderr
		// Let a cancelled run unwind and reap its own children.
		cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
		cmd.WaitDelay = 30 * time.Second
		stdout, err := cmd.Output()
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte{'\n'})
		if len(stdout) == 0 {
			return nil, fmt.Errorf("%s: no result: %v", wl.Name, err)
		}
		sum, perr := runner.ParseResultLine(wl.Name, lines[len(lines)-1])
		if perr != nil {
			return nil, perr
		}
		if err != nil && sum.Failed == 0 {
			return nil, fmt.Errorf("%s: %w", wl.Name, err)
		}
		invalid = invalid || sum.Failed > 0
		sums = append(sums, sum)
	}
	fmt.Printf("\n%-28s", "metric")
	for _, sum := range sums {
		fmt.Printf(" %12s", sum.Workload)
	}
	fmt.Println()
	for _, m := range metrics {
		fmt.Printf("%-28s", m.Name+" ["+m.Unit+"]")
		for _, sum := range sums {
			fmt.Printf(" %12.5g", sum.Metrics[m.Name])
		}
		fmt.Println()
	}
	fmt.Printf("%-28s", "failed")
	for _, sum := range sums {
		fmt.Printf(" %12d", sum.Failed)
	}
	fmt.Println()
	if invalid {
		return sums, errInvalid
	}
	return sums, nil
}
