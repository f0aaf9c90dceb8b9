package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, made from the benchmark's own
// code. Spans of one operation share Req; Parent is the ID of the span
// that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A tracer that is off
// records nothing and every method is a cheap no-op, so the end-to-end
// runs use the same code paths with tracing off.
type tracer struct {
	on    bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
	reqs  int64
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// newReq returns a fresh operation id.
func (t *tracer) newReq() int64 {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// begin opens a span now and returns its id; end closes it.
func (t *tracer) begin(name string, parent, req int64) int64 {
	if !t.on {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Req: req, Name: name, Start: now})
	return int64(len(t.spans))
}

func (t *tracer) end(id int64) {
	if !t.on || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a span whose times were taken elsewhere.
func (t *tracer) record(name string, parent, req int64, start, end time.Time) int64 {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: int64(len(t.spans) + 1), Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	return int64(len(t.spans))
}

// layerStat sums the spans of one name: how many, their total duration
// and their total self time, in nanoseconds.
type layerStat struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
	Total int64  `json:"total_ns"`
	Self  int64  `json:"self_ns"`
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children may overlap each
// other (parallel calls), so the covered part is the union of their
// intervals, clipped to the parent's.
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		cur, curEnd := int64(-1), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				covered += curEnd - cur
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		covered += curEnd - cur
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// summarize folds spans into one layerStat per name, sorted by name.
func summarize(spans []span) []layerStat {
	self := selfTimes(spans)
	by := map[string]*layerStat{}
	for _, s := range spans {
		st := by[s.Name]
		if st == nil {
			st = &layerStat{Name: s.Name}
			by[s.Name] = st
		}
		st.Count++
		st.Total += s.End - s.Start
		st.Self += self[s.ID]
	}
	out := make([]layerStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the run record, every span and the per-name summary as
// JSON lines in dir/<name>.spans.jsonl and returns the path.
func (t *tracer) write(dir, name string, rec runRecord) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	spans := t.snapshot()
	if err := enc.Encode(map[string]any{"run": rec}); err != nil {
		f.Close()
		return "", err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	for _, st := range summarize(spans) {
		if err := enc.Encode(map[string]any{"layer": st}); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, f.Close()
}
