package runner

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Absent is what the one-line JSON result carries for a layer metric whose
// metric family is missing from /metrics, because that line must hold a
// number for every metric. The printed table says "null" instead.
const Absent = -1

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the one JSON object a run prints last.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// ResultLine is the one JSON object a run prints last: the end-to-end
// metrics of an untraced run, or the per-layer metrics of a traced one, as
// spec names them. A metric spec names and the run did not measure is an
// error.
func (out *Outcome) ResultLine(spec *Spec, traced bool) ([]byte, error) {
	metrics := make(map[string]jsonMetric)
	if traced {
		for _, m := range spec.PerLayer {
			p, ok := out.Layers[m.Name]
			if !ok {
				return nil, fmt.Errorf("BENCHMARK.json names per-layer metric %s, which the runner does not measure", m.Name)
			}
			v := float64(Absent)
			if p != nil {
				v = *p
			}
			metrics[m.Name] = jsonMetric{v, m.Unit}
		}
	} else {
		for _, m := range spec.EndToEnd {
			v, ok := out.E2E[m.Name]
			if !ok {
				return nil, fmt.Errorf("BENCHMARK.json names end-to-end metric %s, which the runner does not measure", m.Name)
			}
			metrics[m.Name] = jsonMetric{v, m.Unit}
		}
	}
	return json.Marshal(resultLine{out.Failed == 0 && out.Attempted > 0, out.Attempted, out.Failed, metrics})
}

// Summary is what a result line says about one run.
type Summary struct {
	Workload string
	Failed   uint64
	Metrics  map[string]float64
}

// ParseResultLine reads a result line back.
func ParseResultLine(workload string, line []byte) (*Summary, error) {
	var r resultLine
	if err := json.Unmarshal(line, &r); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	s := &Summary{Workload: workload, Failed: r.Failed, Metrics: make(map[string]float64)}
	for name, m := range r.Metrics {
		s.Metrics[name] = m.Value
	}
	return s, nil
}

// Print writes the run's report: every metric by name with its unit, the
// per-segment values behind each median, and what failed if anything did.
func (out *Outcome) Print(w io.Writer, spec *Spec) {
	fmt.Fprintf(w, "\n== %s  seed %d  [%s]\n", out.Workload, out.Seed, strings.Join(out.Notes, "; "))
	fmt.Fprintf(w, "   attempted %d  failed %d  fail_share %.6f\n", out.Attempted, out.Failed, out.failShare())
	var causes []string
	for c, n := range out.Causes {
		if n > 0 {
			causes = append(causes, fmt.Sprintf("%s=%d", c, n))
		}
	}
	if len(causes) > 0 {
		sort.Strings(causes)
		fmt.Fprintf(w, "   failure causes: %s\n", strings.Join(causes, " "))
	}
	fmt.Fprintf(w, "   set-ups: ")
	for _, d := range out.Setups {
		fmt.Fprintf(w, "%.3fs ", d)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "   %-4s %8s %10s %10s %10s %12s %9s %8s\n", "seg", "seconds", "qps", "p50_us", "p99_us", "cpu_us_per_q", "samples", ">p99")
	for i, s := range out.Seg {
		tag := ""
		if s.Traced {
			tag = "  traced, not in the medians"
		}
		fmt.Fprintf(w, "   %-4d %8.3f %10.1f %10.2f %10.2f %12.3f %9d %8d%s\n",
			i, s.Seconds, s.QPS, s.P50us, s.P99us, s.CPUusPerQ, s.Samples, s.BeyondP99, tag)
	}
	a := out.Whole
	fmt.Fprintf(w, "   %-4s %8.3f %10.1f %10.2f %10.2f %12.3f %9d %8d\n", "all", a.Seconds, a.QPS, a.P50us, a.P99us, a.CPUusPerQ, a.Samples, a.BeyondP99)
	for _, m := range spec.EndToEnd {
		fmt.Fprintf(w, "   %-28s %14.4f %-6s (%s is better)\n", m.Name, out.E2E[m.Name], m.Unit, m.Better)
	}
	if len(out.Layers) == 0 {
		return
	}
	fmt.Fprintf(w, "   -- layers\n")
	for _, m := range spec.PerLayer {
		if p := out.Layers[m.Name]; p != nil {
			fmt.Fprintf(w, "   %-28s %14.4f %s\n", m.Name, *p, m.Unit)
		} else {
			fmt.Fprintf(w, "   %-28s %14s %s\n", m.Name, "null", m.Unit)
		}
	}
	if out.TraceFile != "" {
		fmt.Fprintf(w, "   spans: %s\n", out.TraceFile)
	}
}

func (out *Outcome) failShare() float64 {
	if out.Attempted == 0 {
		return 0
	}
	return float64(out.Failed) / float64(out.Attempted)
}

// Metric is one metric as BENCHMARK.json describes it.
type Metric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	// Better is "lower" or "higher".
	Better string `json:"better"`
	// Bound is the share by which an end-to-end metric may get worse before
	// a change is a regression; per-layer metrics have none.
	Bound float64 `json:"bound"`
}

// Spec is BENCHMARK.json, the contract the driver reads. It is the one
// place that says which metrics exist, in which unit, which direction is
// better and how far each may regress; the runner takes all of that from
// here and only supplies the values. bench/README.md says which end-to-end
// metric each per-layer metric should move, on which workload.
type Spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []Metric `json:"end_to_end"`
	PerLayer []Metric `json:"per_layer"`
}

// LoadSpec reads BENCHMARK.json from path.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no metrics", path)
	}
	return &s, nil
}

// CompareAA prints, for two sets of runs of the same code, both values of
// every workload × end-to-end metric, how much worse the second is than
// the first as a share of the first, and the bound; it returns how many
// pairs disagree beyond their bound in either direction.
func CompareAA(w io.Writer, first, second []*Summary, metrics []Metric) int {
	bad := 0
	fmt.Fprintf(w, "\n| workload | metric | run A | run B | B worse by | bound | |\n|---|---|---:|---:|---:|---:|---|\n")
	for i, a := range first {
		b := second[i]
		for _, m := range metrics {
			va, vb := a.Metrics[m.Name], b.Metrics[m.Name]
			worse := 0.0
			if va != 0 {
				worse = (vb - va) / va
				if m.Better == "higher" {
					worse = -worse
				}
			}
			verdict := "ok"
			// Same code on both sides: a gap beyond the bound in either
			// direction means the metric cannot resolve a change that size.
			if worse > m.Bound || -worse > m.Bound {
				verdict = "DISAGREE"
				bad++
			}
			fmt.Fprintf(w, "| %s | %s | %.4g | %.4g | %+.1f%% | %.0f%% | %s |\n",
				a.Workload, m.Name, va, vb, 100*worse, 100*m.Bound, verdict)
		}
	}
	return bad
}
