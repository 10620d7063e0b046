// Package promtext reads the Prometheus text exposition dohpoold serves
// at /metrics, so the benchmark takes its per-layer counts from the
// daemon's own counters without linking any of its code.
package promtext

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Series is one sample line.
type Series struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Scrape is every sample of one exposition, keyed by the sample line's
// name-and-labels text.
type Scrape map[string]Series

// Parse reads an exposition. Comment lines are skipped; a line it cannot
// read is an error, because a half-read scrape would turn into wrong
// deltas.
func Parse(r io.Reader) (Scrape, error) {
	out := make(Scrape)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s, key, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("promtext: %q: %w", line, err)
		}
		out[key] = s
	}
	return out, sc.Err()
}

func parseLine(line string) (Series, string, error) {
	var s Series
	cut := strings.LastIndexByte(line, ' ')
	if cut < 0 {
		return s, "", fmt.Errorf("no value")
	}
	key := strings.TrimSpace(line[:cut])
	v, err := strconv.ParseFloat(line[cut+1:], 64)
	if err != nil {
		return s, "", err
	}
	s.Value = v
	open := strings.IndexByte(key, '{')
	if open < 0 {
		s.Name = key
		return s, key, nil
	}
	if !strings.HasSuffix(key, "}") {
		return s, "", fmt.Errorf("unclosed label set")
	}
	s.Name = key[:open]
	s.Labels = make(map[string]string)
	rest := key[open+1 : len(key)-1]
	for rest != "" {
		name, after, ok := strings.Cut(rest, "=")
		if !ok || len(after) == 0 || after[0] != '"' {
			return s, "", fmt.Errorf("bad label pair")
		}
		// QuotedPrefix understands the escapes the format allows (\\ \" \n).
		quoted, err := strconv.QuotedPrefix(after)
		if err != nil {
			return s, "", fmt.Errorf("bad label value: %w", err)
		}
		val, err := strconv.Unquote(quoted)
		if err != nil {
			return s, "", fmt.Errorf("bad label value: %w", err)
		}
		s.Labels[strings.TrimSpace(name)] = val
		rest = strings.TrimPrefix(strings.TrimSpace(after[len(quoted):]), ",")
		rest = strings.TrimSpace(rest)
	}
	return s, key, nil
}

// Sum adds up the series of family name whose labels include every
// label/value pair in match ("proto", "udp", ...). ok is false when the
// scrape has no series of that family at all — the family was renamed or
// removed — which callers report as null rather than as zero.
func (s Scrape) Sum(name string, match ...string) (sum float64, ok bool) {
	for _, ser := range s {
		if ser.Name != name {
			continue
		}
		ok = true
		matches := true
		for i := 0; i+1 < len(match); i += 2 {
			if ser.Labels[match[i]] != match[i+1] {
				matches = false
				break
			}
		}
		if matches {
			sum += ser.Value
		}
	}
	return sum, ok
}

// ByLabel returns the values of family name's series keyed by their value of
// label, or nil when the scrape has no series of that family.
func (s Scrape) ByLabel(name, label string) map[string]float64 {
	var out map[string]float64
	for _, ser := range s {
		if ser.Name != name {
			continue
		}
		if out == nil {
			out = make(map[string]float64)
		}
		out[ser.Labels[label]] += ser.Value
	}
	return out
}

// Delta returns after minus before, series by series. A series that only
// after has counts from zero; one that only before has is dropped.
func Delta(after, before Scrape) Scrape {
	out := make(Scrape, len(after))
	for key, a := range after {
		a.Value -= before[key].Value
		out[key] = a
	}
	return out
}
