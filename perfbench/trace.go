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

// A span is one timed call from the benchmark into a layer. Roots (layer
// "bench") are the benchmark's own timed regions: a setup, a walk pass,
// one request from its due time to its completion. A root's self time is
// the residual: time no layer span accounts for.
type span struct {
	ID     int32              `json:"id"`
	Parent int32              `json:"parent"` // -1 for a root
	Name   string             `json:"name"`
	Layer  string             `json:"layer"`
	Req    int64              `json:"req"` // request ID, -1 outside a request
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

const benchLayer = "bench"

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes run the same code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// open starts a span at the given time and returns its ID (-1 when
// tracing is off).
func (t *tracer) open(name, layer string, parent int32, req int64, at time.Time) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Req: req, Start: t.ns(at), End: t.ns(at)})
	return id
}

// close ends span id at the given time, attaching the program's own
// splits as attributes.
func (t *tracer) close(id int32, at time.Time, attrs map[string]float64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = t.ns(at)
	if attrs != nil {
		t.spans[id].Attrs = attrs
	}
}

// record adds a finished span.
func (t *tracer) record(name, layer string, parent int32, req int64, start, end time.Time, attrs map[string]float64) int32 {
	id := t.open(name, layer, parent, req, start)
	t.close(id, end, attrs)
	return id
}

// piece is one program-reported share of a span's time.
type piece struct {
	name, layer string
	d           time.Duration
}

// split lays the program's own time splits (for example Result.Timing
// or a response's queue_ms and run_ms) out as consecutive child spans
// from the parent's start, clipped to the parent, so the attribution can
// charge them to their layers. Their order inside the parent is nominal;
// their durations are the program's.
func (t *tracer) split(parent int32, pieces ...piece) {
	if t == nil || parent < 0 {
		return
	}
	t.mu.Lock()
	p := t.spans[parent]
	t.mu.Unlock()
	at := p.Start
	for _, pt := range pieces {
		if pt.d <= 0 {
			continue
		}
		end := min(at+int64(pt.d), p.End)
		t.record(pt.name, pt.layer, parent, p.Req, t.epoch.Add(time.Duration(at)), t.epoch.Add(time.Duration(end)), nil)
		at = end
	}
}

// selfTimes returns every span's self time: its duration minus the union
// of its children's intervals.
func selfTimes(spans []span) []int64 {
	kids := make([][]int32, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			iv = append(iv, [2]int64{spans[k].Start, spans[k].End})
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, reach int64 = 0, s.Start
		for _, x := range iv {
			lo, hi := max(x[0], reach), min(x[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// validateSpans checks the span tree is well formed: parents precede their
// children, every span ends after it starts, and children lie inside
// their parents.
func validateSpans(spans []span) error {
	for i, s := range spans {
		if s.ID != int32(i) {
			return fmt.Errorf("span %d has id %d", i, s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			if s.Layer != benchLayer {
				return fmt.Errorf("root span %d (%s) is in layer %s", i, s.Name, s.Layer)
			}
			continue
		}
		if s.Parent >= s.ID {
			return fmt.Errorf("span %d (%s) precedes its parent %d", i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] outside parent %d (%s) [%d,%d]",
				i, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// attribute reports each layer's self time and the residual as shares of
// the roots' total duration.
func (t *tracer) attribute(r *run) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := validateSpans(t.spans); err != nil {
		r.fail("span tree: %v", err)
	}
	self := selfTimes(t.spans)
	var total int64
	byLayer := map[string]int64{}
	for i, s := range t.spans {
		if s.Parent < 0 {
			total += s.End - s.Start
		}
		byLayer[s.Layer] += self[i]
	}
	if total <= 0 {
		return
	}
	for _, l := range layers {
		r.set(l+".self_share", float64(byLayer[l])/float64(total))
	}
	r.set("trace.residual_share", float64(byLayer[benchLayer])/float64(total))
	r.set("trace.spans", float64(len(t.spans)))
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
