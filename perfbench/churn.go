package main

import (
	"encoding/json"
	"math"
	"net/http"
	"time"

	"flashmob"
	"flashmob/internal/rng"
	"flashmob/internal/serve"
)

// writer is serve-churn's open-loop edge stream: one freezing ingest of
// sc.ingestEdges random edges every 1/sc.ingestPerSecond seconds, every
// sc.newVertexEvery-th batch also attaching a new vertex. Ingests go one
// after another, each timed from its due time.
type writer struct {
	h      http.Handler
	tr     *tracer
	period time.Duration
	bodies [][]byte
	edges  [][][2]flashmob.VID
	verts  [][]flashmob.VID
	quit   chan struct{}
	done   chan struct{}
	out    []ingestReply
}

// ingestReply is one ingest's outcome.
type ingestReply struct {
	due, done time.Time
	status    int
	edges     [][2]flashmob.VID
	newVerts  []flashmob.VID
	resp      serve.IngestResponse
}

func (in *ingestReply) latencyMS() float64 {
	if in.status != http.StatusOK {
		return math.Inf(1)
	}
	return float64(in.done.Sub(in.due)) / float64(time.Millisecond)
}

// newWriter draws the whole edge stream up front from src.
func newWriter(h http.Handler, sc *scale, src *rng.XorShift1024Star, n uint32, seconds float64, tr *tracer) *writer {
	w := &writer{
		h: h, tr: tr,
		period: time.Duration(float64(time.Second) / sc.ingestPerSecond),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	count := int(seconds * sc.ingestPerSecond)
	next := flashmob.VID(n)
	for k := 0; k < count; k++ {
		var edges [][2]flashmob.VID
		for len(edges) < sc.ingestEdges {
			u, v := flashmob.VID(src.Uint32n(n)), flashmob.VID(src.Uint32n(n))
			if u != v {
				edges = append(edges, [2]flashmob.VID{u, v})
			}
		}
		var verts []flashmob.VID
		if k%sc.newVertexEvery == sc.newVertexEvery-1 {
			for i := 0; i < 4; i++ {
				edges = append(edges, [2]flashmob.VID{next, flashmob.VID(src.Uint32n(n))})
			}
			verts = append(verts, next)
			next++
		}
		body, _ := json.Marshal(serve.IngestRequest{Edges: edges, Freeze: true})
		w.bodies = append(w.bodies, body)
		w.edges = append(w.edges, edges)
		w.verts = append(w.verts, verts)
	}
	return w
}

// start begins the stream at begin.
func (w *writer) start(begin time.Time) {
	go func() {
		defer close(w.done)
		for k, body := range w.bodies {
			due := begin.Add(time.Duration(k) * w.period)
			if d := time.Until(due); d > 0 {
				t := time.NewTimer(d)
				select {
				case <-w.quit:
					t.Stop()
					return
				case <-t.C:
				}
			} else {
				select {
				case <-w.quit:
					return
				default:
				}
			}
			rp := call(w.h, "/v1/ingest", body, due, 1<<40+int64(k), w.tr, "ingest", "dyn", false)
			in := ingestReply{due: rp.due, done: rp.done, status: rp.status, edges: w.edges[k], newVerts: w.verts[k]}
			if rp.status == http.StatusOK {
				if err := json.Unmarshal(rp.body, &in.resp); err != nil {
					in.status = 0
				}
			}
			w.out = append(w.out, in)
		}
	}()
}

// stop ends the stream and returns every ingest's outcome.
func (w *writer) stop() []ingestReply {
	close(w.quit)
	<-w.done
	return w.out
}
