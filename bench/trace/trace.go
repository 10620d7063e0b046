// Package trace keeps the runner's spans in memory and writes them out
// when a traced run ends. A request is four consecutive spans — build,
// send, wait, validate — that share the request's ID and have the
// segment span as parent; an in-process probe is one span per call batch.
package trace

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
)

// Phases of one request, in order. Stamps[i] starts Phases[i];
// Stamps[len(Phases)] ends the last one.
var Phases = [...]string{"build", "send", "wait", "validate"}

// Stamps are the phase boundaries of one request in nanoseconds since the
// run's time base.
type Stamps [len(Phases) + 1]int64

// Request is one traced request.
type Request struct {
	ID     uint32
	Name   uint32 // index into the workload's name table
	Stamps Stamps
}

// Recorder collects one worker's requests. Every request adds to the
// per-phase totals; only the first cap(kept) are kept span by span, so
// a flood cannot grow the trace without bound.
type Recorder struct {
	kept   []Request
	nextID uint32
	Count  uint64
	Total  [len(Phases)]int64 // summed duration per phase
}

// NewRecorder returns a recorder that keeps up to keep requests whole.
// idBase separates the request IDs of different workers.
func NewRecorder(keep int, idBase uint32) *Recorder {
	return &Recorder{kept: make([]Request, 0, keep), nextID: idBase}
}

// Add records one request.
func (r *Recorder) Add(name uint32, st *Stamps) {
	r.Count++
	for i := range r.Total {
		r.Total[i] += st[i+1] - st[i]
	}
	if len(r.kept) < cap(r.kept) {
		r.kept = append(r.kept, Request{ID: r.nextID, Name: name, Stamps: *st})
		r.nextID++
	}
}

// Span is the written form of a span.
type Span struct {
	Name    string `json:"name"`
	ID      string `json:"id"`
	Parent  string `json:"parent,omitempty"`
	Request uint32 `json:"request,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// Log gathers the spans of one traced run. It is filled by one goroutine.
type Log struct {
	spans  []Span
	nextID int
}

// Add appends a span and returns its ID, for use as a parent.
func (l *Log) Add(name, parent string, start, end int64) string {
	l.nextID++
	id := name + "#" + strconv.Itoa(l.nextID)
	l.spans = append(l.spans, Span{Name: name, ID: id, Parent: parent, StartNs: start, EndNs: end})
	return id
}

// Window is a traced segment: the parent span of the requests that ended
// inside it.
type Window struct {
	Name           string
	StartNs, EndNs int64
}

// File is what WriteFile writes.
type File struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Requests counts every traced request; Kept of them are written span
	// by span. SelfNs covers all of them.
	Requests uint64 `json:"requests"`
	Kept     int    `json:"kept"`
	// SelfNs is each span name's self time: its duration minus the part
	// its child spans cover. Request phases and probe batches have no
	// children, so theirs is their summed duration. "segment" is what the
	// workers spent outside any request — loop control and bookkeeping —
	// and is only given when a worker has one request at a time; with a
	// window of several, waits overlap and the sum says nothing.
	SelfNs map[string]int64 `json:"self_ns"`
	Spans  []Span           `json:"spans"`
}

// WriteFile writes the run's spans to path: the probe spans added to l,
// one span per traced segment, and four per kept request, each under the
// segment it ended in. serial says each recorder had one request in flight
// at a time.
func (l *Log) WriteFile(path, workload string, seed int64, segments []Window, recs []*Recorder, serial bool) error {
	f := File{Workload: workload, Seed: seed, SelfNs: map[string]int64{}}
	spans := append([]Span(nil), l.spans...)
	for _, s := range l.spans {
		f.SelfNs[s.Name] += s.EndNs - s.StartNs
	}
	var segTotal, covered int64
	for _, w := range segments {
		spans = append(spans, Span{Name: "segment", ID: w.Name, StartNs: w.StartNs, EndNs: w.EndNs})
		segTotal += w.EndNs - w.StartNs
	}
	for _, r := range recs {
		f.Requests += r.Count
		f.Kept += len(r.kept)
		for i, name := range Phases {
			f.SelfNs[name] += r.Total[i]
			covered += r.Total[i]
		}
		for _, q := range r.kept {
			parent := ""
			for _, w := range segments {
				if end := q.Stamps[len(Phases)]; end >= w.StartNs && end < w.EndNs {
					parent = w.Name
				}
			}
			for i, name := range Phases {
				spans = append(spans, Span{Name: name, ID: name + "@" + strconv.Itoa(int(q.ID)), Parent: parent,
					Request: q.ID, StartNs: q.Stamps[i], EndNs: q.Stamps[i+1]})
			}
		}
	}
	if serial {
		f.SelfNs["segment"] = segTotal*int64(len(recs)) - covered
	}
	f.Spans = spans
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(&f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
