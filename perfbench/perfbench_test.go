package main

import (
	"encoding/json"
	"net/http"
	"os"
	"testing"
	"time"

	"flashmob"
	"flashmob/internal/graph"
	"flashmob/internal/rng"
	"flashmob/internal/serve"
	"flashmob/internal/walk"
)

// The benchmark's own tests run every workload at the tiny scale.

func tinyOptions(t *testing.T, workload string, trace bool) options {
	t.Helper()
	return options{workload: workload, seed: 7, seconds: 1, trace: trace, scale: "tiny", dir: t.TempDir()}
}

// benchmarkJSON is the part of BENCHMARK.json the tests compare against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestCatalogMatchesBenchmarkJSON pins the metric catalogue to the
// declared one, names, units and order alike, and the workloads to the
// implemented ones.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	check := func(kind string, got []metricDesc, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: catalogue has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: catalogue %s (%s), BENCHMARK.json %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bj.EndToEnd)
	check("per_layer", perLayer, bj.PerLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload untraced and
// traced and checks the result line carries every declared metric with
// its unit, and that every check passed.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, w := range bj.Workloads {
		for _, trace := range []bool{false, true} {
			res, err := execute(tinyOptions(t, w.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := bj.EndToEnd
			if trace {
				want = bj.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestSpanTreeWellFormed traces an offline and a serve workload: every
// child lies inside its parent, self times are non-negative, and the
// layer shares plus the residual account for the roots' whole duration.
func TestSpanTreeWellFormed(t *testing.T) {
	sc, err := scaleFor("tiny")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"offline", "serve-churn"} {
		tr := newTracer()
		r, err := workloads[name](tinyOptions(t, name, true), sc, tr)
		if err != nil {
			t.Fatal(err)
		}
		if err := validateSpans(tr.spans); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, s := range selfTimes(tr.spans) {
			if s < 0 {
				t.Fatalf("%s: span %d (%s) has self time %d", name, i, tr.spans[i].Name, s)
			}
		}
		tr.attribute(r)
		if r.failed != 0 {
			t.Fatalf("%s: %v", name, r.problems)
		}
		residual := r.values["trace.residual_share"]
		sum := residual
		for _, l := range layers {
			sum += r.values[l+".self_share"]
		}
		if residual < 0 || sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: residual %v, shares sum to %v", name, residual, sum)
		}
	}
}

// TestValidateSpansRejectsEscapingChild: a child ending after its parent
// is reported.
func TestValidateSpansRejectsEscapingChild(t *testing.T) {
	tr := newTracer()
	at := tr.epoch
	root := tr.record("root", benchLayer, -1, -1, at, at.Add(time.Millisecond), nil)
	tr.record("child", "core", root, -1, at, at.Add(2*time.Millisecond), nil)
	if err := validateSpans(tr.spans); err == nil {
		t.Fatal("a child outside its parent passed validation")
	}
}

// tinyServeGraph generates the tiny serve graph.
func tinyServeGraph(t *testing.T) (*graph.CSR, *scale) {
	t.Helper()
	sc, err := scaleFor("tiny")
	if err != nil {
		t.Fatal(err)
	}
	path, err := cachedGraph(t.TempDir(), graphKey{sc.servePreset, sc.serveScale, 7})
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	return g, sc
}

// serveQueries sends a fixed set of seeded queries to a target and
// returns the requests and replies.
func serveQueries(t *testing.T, tg *target, n int) ([]walkReq, []reply) {
	t.Helper()
	reqs := schedule(rng.NewXorShift1024Star(99), 0, 1000, float64(n)/1000, mixedAlgos, 0)
	replies := runRung(tg.h, reqs, time.Now(), nil, false)
	for i, rp := range replies {
		if rp.status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, rp.status)
		}
	}
	return reqs, replies
}

// TestCorruptedReferenceFails: the reference checker passes the server's
// own responses and fails one whose trajectory hash is off by a bit.
func TestCorruptedReferenceFails(t *testing.T) {
	g, sc := tinyServeGraph(t)
	tg, err := startMixed(g, sc, 7, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer tg.close()
	reqs, replies := serveQueries(t, tg, 40)
	for _, corrupt := range []bool{false, true} {
		ck := &refChecker{sys: tg.ref, batch: sc.referenceBatch}
		for i := range reqs {
			rp := replies[i]
			if corrupt && i == 17 {
				rp.crc ^= 1
			}
			if err := ck.add(&reqs[i], nil, &rp); err != nil {
				t.Fatal(err)
			}
		}
		r := newRun()
		if err := ck.finish(r); err != nil {
			t.Fatal(err)
		}
		if want := map[bool]int64{false: 0, true: 1}[corrupt]; r.failed != want {
			t.Errorf("corrupt=%v: %d failures, want %d: %v", corrupt, r.failed, want, r.problems)
		}
	}
}

// TestHopCheckerRejectsForeignEdge: a DeepWalk hop that is no edge of
// the response's epoch fails, and one ingested at a later epoch fails
// too. The ingest returns epoch 7, as when a compaction published
// epochs 6 and 7 between its freeze (epoch 5) and its reply: walks on
// epoch 5 already see the batch.
func TestHopCheckerRejectsForeignEdge(t *testing.T) {
	g, _ := tinyServeGraph(t)
	var u, v flashmob.VID
	for v = 1; g.HasEdge(u, v) || g.HasEdge(v, u); v++ {
	}
	r := newRun()
	ingest := ingestReply{status: http.StatusOK, edges: [][2]flashmob.VID{{u, v}}, resp: serve.IngestResponse{Epoch: 7}}
	ck := newHopChecker(g, 4, []ingestReply{ingest}, r)
	w := g.Neighbors(u)[0]
	q := &walkReq{algo: "deepwalk", walkers: 1, steps: 2}
	for _, tc := range []struct {
		path  string
		epoch uint64
		ok    bool
	}{
		{pathJSON(u, w, u), 1, g.HasEdge(w, u)},
		{pathJSON(u, v, u), 5, true},
		{pathJSON(u, v, u), 4, false},
	} {
		err := ck.add(q, &serve.WalkResponse{Epoch: tc.epoch}, &reply{paths: []byte(tc.path)})
		if (err == nil) != tc.ok {
			t.Errorf("path %s at epoch %d: err %v, want ok=%v", tc.path, tc.epoch, err, tc.ok)
		}
	}
}

func pathJSON(vs ...flashmob.VID) string {
	b, _ := json.Marshal([][]flashmob.VID{vs})
	return string(b)
}

// TestCheckHopsRejectsNonEdge: the offline hop check fails a trajectory
// with a jump.
func TestCheckHopsRejectsNonEdge(t *testing.T) {
	g, _ := tinyServeGraph(t)
	h := walkHistory(t, [][]flashmob.VID{{0}, {g.Neighbors(0)[0]}})
	if err := checkHops(g, h, 8, rng.NewXorShift1024Star(1)); err != nil {
		t.Fatalf("a valid hop failed: %v", err)
	}
	var v flashmob.VID
	for v = 1; g.HasEdge(0, v); v++ {
	}
	h = walkHistory(t, [][]flashmob.VID{{0}, {v}})
	if err := checkHops(g, h, 8, rng.NewXorShift1024Star(1)); err == nil {
		t.Fatal("a non-edge hop passed")
	}
}

// TestShardedMatchesMixed: the same seeded queries get byte-identical
// trajectories from serve-mixed's server and its sharded topology.
func TestShardedMatchesMixed(t *testing.T) {
	g, sc := tinyServeGraph(t)
	mixed, err := startMixed(g, sc, 7, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer mixed.close()
	sharded, err := startSharded(g, sc, 7, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.close()
	_, a := serveQueries(t, mixed, 30)
	_, b := serveQueries(t, sharded, 30)
	for i := range a {
		if a[i].crc != b[i].crc {
			t.Fatalf("query %d: trajectories differ between the plain and the sharded server", i)
		}
	}
}

// TestGenerateIsSeeded: the same key gives the same graph, another seed
// another one.
func TestGenerateIsSeeded(t *testing.T) {
	dir := t.TempDir()
	a, err := generate(dir, graphKey{"YT", 400, 1})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := generate(dir, graphKey{"YT", 400, 1})
	c, _ := generate(dir, graphKey{"YT", 400, 2})
	if err := a.Validate(); err != nil || !graph.IsDegreeSorted(a) {
		t.Fatalf("generated graph invalid (%v) or not degree-sorted", err)
	}
	if crcOfVIDs(0, a.Targets) != crcOfVIDs(0, b.Targets) {
		t.Error("same seed, different graphs")
	}
	if crcOfVIDs(0, a.Targets) == crcOfVIDs(0, c.Targets) {
		t.Error("different seeds, same graph")
	}
}

func walkHistory(t *testing.T, rows [][]flashmob.VID) *walk.History {
	t.Helper()
	h := walk.NewHistory(len(rows[0]))
	for _, row := range rows {
		if err := h.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	return h
}
