package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"flashmob/internal/rng"
	"flashmob/internal/serve"
)

// The load generator calls the server's Handler in process: no sockets,
// and no more OS threads than GOMAXPROCS (nproc), so it can hold far
// more requests in flight than nproc connections would, which is what
// coalescing needs. It is open loop: requests are sent on a seeded
// Poisson schedule whatever the server does, and each is timed from the
// moment it was due, so a stall also charges the requests it delays.

// The request mix every serve workload draws from.
var (
	mixWalkers = []int{8, 32, 128}
	mixSteps   = []int{16, 32, 64}
)

// walkReq is one scheduled query.
type walkReq struct {
	id      int64
	due     time.Duration // offset from the rung's start
	algo    string
	walkers int
	steps   int
	seed    uint64
	body    []byte
}

// schedule draws a rung's arrivals (Poisson at rate req/s over seconds)
// and queries from src. Query seeds are distinct per request ID.
func schedule(src *rng.XorShift1024Star, firstID int64, rate, seconds float64, algos []string, timeoutMS float64) []walkReq {
	var out []walkReq
	var at float64
	for id := firstID; ; id++ {
		at += -math.Log(1-src.Float64()) / rate
		if at >= seconds {
			return out
		}
		q := walkReq{
			id:      id,
			due:     time.Duration(at * float64(time.Second)),
			algo:    algos[src.Uint32n(uint32(len(algos)))],
			walkers: mixWalkers[src.Uint32n(uint32(len(mixWalkers)))],
			steps:   mixSteps[src.Uint32n(uint32(len(mixSteps)))],
			seed:    src.Uint64(),
		}
		seed := q.seed
		q.body, _ = json.Marshal(serve.WalkRequest{
			Walkers: q.walkers, Steps: q.steps, Algorithm: q.algo, Seed: &seed, TimeoutMS: timeoutMS,
		})
		out = append(out, q)
	}
}

// reply is one request's observed outcome. A walk response's trajectory
// array is split off as soon as it arrives: the envelope is kept for
// decoding after the load stops, and the array is hashed (and kept only
// when the checker needs the positions), so buffered replies stay small.
type reply struct {
	due, sent, done time.Time
	status          int
	body            []byte // the envelope, "paths":null in a walk response
	paths           []byte // the raw trajectory array, when kept
	crc             uint32 // CRC-32C of the raw trajectory array
	span            int32  // the handler call's span, -1 untraced
}

var pathsKey = []byte(`"paths":`)

// splitPaths cuts the trajectory array out of a walk response body.
func (r *reply) splitPaths(keep bool) {
	i := bytes.Index(r.body, pathsKey)
	if i < 0 {
		return
	}
	from := i + len(pathsKey)
	end := bytes.Index(r.body[from:], []byte("]]"))
	if end < 0 {
		return
	}
	to := from + end + 2
	arr := r.body[from:to]
	r.crc = crc32.Checksum(arr, castagnoli)
	if keep {
		r.paths = append([]byte(nil), arr...)
	}
	env := make([]byte, 0, len(r.body)-len(arr)+4)
	env = append(append(append(env, r.body[:from]...), "null"...), r.body[to:]...)
	r.body = env
}

func (r *reply) latencyMS() float64 {
	if r.status != http.StatusOK {
		return math.Inf(1)
	}
	return float64(r.done.Sub(r.due)) / float64(time.Millisecond)
}

func (r *reply) lagMS() float64 { return float64(r.sent.Sub(r.due)) / float64(time.Millisecond) }

// recorder is a minimal in-process http.ResponseWriter.
type recorder struct {
	hdr    http.Header
	status int
	buf    bytes.Buffer
}

func (w *recorder) Header() http.Header { return w.hdr }

func (w *recorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *recorder) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.buf.Write(b)
}

// call sends one request to h in process and records its spans: the
// request root from its due time, the generator's dispatch lag, and the
// handler call.
func call(h http.Handler, path string, body []byte, due time.Time, id int64, tr *tracer, name string, layer string, keepPaths bool) reply {
	sent := time.Now()
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return reply{due: due, sent: sent, done: time.Now(), span: -1}
	}
	req.Header.Set("Content-Type", "application/json")
	w := &recorder{hdr: http.Header{}}
	h.ServeHTTP(w, req)
	rep := reply{due: due, sent: sent, done: time.Now(), status: w.status, body: w.buf.Bytes(), span: -1}
	if rep.status == http.StatusOK && path == "/v1/walk" {
		rep.splitPaths(keepPaths)
	}
	if tr != nil {
		root := tr.open(name, benchLayer, -1, id, due)
		tr.record("gen.dispatch", "gen", root, id, due, sent, nil)
		rep.span = tr.record("serve.Handler.ServeHTTP "+path, layer, root, id, sent, rep.done, nil)
		tr.close(root, rep.done, nil)
	}
	return rep
}

// runRung offers reqs to h on their schedule from start and waits for
// every reply.
func runRung(h http.Handler, reqs []walkReq, start time.Time, tr *tracer, keepPaths bool) []reply {
	out := make([]reply, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		due := start.Add(reqs[i].due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			out[i] = call(h, "/v1/walk", reqs[i].body, due, reqs[i].id, tr, "request", "serve", keepPaths)
		}(i, due)
	}
	wg.Wait()
	return out
}

// saturate is the closed-loop capacity probe: conc clients each send
// the next query of reqs as soon as their previous reply arrives, until
// the deadline. It returns the replies in query order (unsent queries
// are dropped), and an error when the clients used up reqs before the
// deadline: the probe then measured fewer queries than the server could
// take, and its goodput would understate capacity.
func saturate(h http.Handler, reqs []walkReq, conc int, until time.Time, tr *tracer, keepPaths bool) ([]walkReq, []reply, error) {
	out := make([]reply, len(reqs))
	var next atomic.Int64
	var ranOut atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < conc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) {
				i := next.Add(1) - 1
				if i >= int64(len(reqs)) {
					ranOut.Store(true)
					return
				}
				out[i] = call(h, "/v1/walk", reqs[i].body, time.Now(), reqs[i].id, tr, "request", "serve", keepPaths)
			}
		}()
	}
	wg.Wait()
	n := min(int(next.Load()), len(reqs))
	if ranOut.Load() {
		return reqs[:n], out[:n], fmt.Errorf("the capacity probe used all %d drawn queries before its deadline", len(reqs))
	}
	return reqs[:n], out[:n], nil
}
