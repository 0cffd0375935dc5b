package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval recorded around a call from this
// benchmark into a vliwbind layer, or around a structural unit of a
// workload (a batch, a sweep, a client's request loop). Layer spans are
// named "<module>.<call>"; structural names carry no dot.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) layer() bool  { return strings.Contains(s.Name, ".") }
func (s span) dur() float64 { return float64(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op that returns at once.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (0 when untraced).
func (t *tracer) start(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// durations returns the durations (ns) of every closed span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, s.dur())
		}
	}
	return out
}

// children indexes spans by parent id.
func (t *tracer) children() map[int][]span {
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// unionLen is the total length of the union of intervals, so children
// that ran concurrently are not counted twice.
func unionLen(iv []span) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	total := 0.0
	var curS, curE time.Duration
	open := false
	for _, s := range iv {
		if !open || s.Start > curE {
			if open {
				total += float64(curE - curS)
			}
			curS, curE, open = s.Start, s.End, true
		} else if s.End > curE {
			curE = s.End
		}
	}
	if open {
		total += float64(curE - curS)
	}
	return total
}

// topLayers collects the outermost layer spans below span id, looking
// through structural spans.
func topLayers(kids map[int][]span, id int) []span {
	var out []span
	for _, c := range kids[id] {
		if c.layer() {
			out = append(out, c)
		} else {
			out = append(out, topLayers(kids, c.ID)...)
		}
	}
	return out
}

// unattributed is the share of root-span (batch, sweep, client loop)
// time that no layer span covers: 1 − Σ covered ÷ Σ root duration.
// Where layer spans do not overlap, the covered time is exactly the sum
// of the layers' self times.
func (t *tracer) unattributed(root string) float64 {
	kids := t.children()
	var wall, covered float64
	for _, s := range t.spans {
		if s.Name == root && s.End > 0 {
			wall += s.dur()
			covered += unionLen(topLayers(kids, s.ID))
		}
	}
	if wall == 0 {
		return 0
	}
	return 1 - covered/wall
}

// selfTimes sums, per layer name, each span's duration minus the part
// of it that its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	kids := t.children()
	self := make(map[string]float64)
	for _, s := range t.spans {
		if s.layer() && s.End > 0 {
			self[s.Name] += s.dur() - unionLen(append([]span(nil), kids[s.ID]...))
		}
	}
	return self
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
