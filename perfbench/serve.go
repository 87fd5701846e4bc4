package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"flashmob"
	"flashmob/internal/algo"
	"flashmob/internal/core"
	"flashmob/internal/graph"
	"flashmob/internal/part"
	"flashmob/internal/rng"
	"flashmob/internal/serve"
	"flashmob/internal/shard"
)

var (
	mixedAlgos = []string{"deepwalk", "node2vec", "pagerank"}
	// Overlay epochs reject second-order walks, so the dynamic backend
	// serves first-order walks only.
	churnAlgos = []string{"deepwalk", "pagerank"}
)

func specFor(name string) flashmob.Algorithm {
	switch name {
	case "node2vec":
		return node2vecSpec()
	case "pagerank":
		return flashmob.PageRankWalk(0.85)
	}
	return flashmob.DeepWalk()
}

func backends(names []string, sys *flashmob.System, ss *flashmob.ShardedSystem, d *flashmob.DynamicSystem) []serve.Backend {
	var out []serve.Backend
	for _, n := range names {
		out = append(out, serve.Backend{Name: n, Sys: sys, Spec: specFor(n), Sharded: ss, Dyn: d})
	}
	return out
}

// target is a running server plus what its checks need.
type target struct {
	h        http.Handler
	ref      *flashmob.System // reference runs for bitwise checks (nil: hop checks)
	dyn      *flashmob.DynamicSystem
	sharded  *flashmob.ShardedSystem
	runLayer string // the layer a response's run_ms is charged to
	close    func()
}

// serveOptions is the build every static serve workload uses: a
// DeepWalk-primary system with paths recorded, planned for wave-sized
// runs.
func serveOptions(sc *scale, seed uint64, metrics bool) flashmob.Options {
	return flashmob.Options{
		Algorithm: flashmob.DeepWalk(), Workers: sc.workers, Seed: seed,
		RecordPaths: true, PlanWalkers: sc.planWalkers, Metrics: metrics,
	}
}

// startMixed builds the serve-mixed server: one system behind the
// default serve.Config, serving deepwalk, node2vec and pagerank.
func startMixed(g *graph.CSR, sc *scale, seed uint64, tr *tracer, root int32) (*target, error) {
	t0 := time.Now()
	sys, err := flashmob.New(g, serveOptions(sc, seed, tr != nil))
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	srv, err := serve.New(backends(mixedAlgos, sys, nil, nil), serve.Config{})
	if err != nil {
		sys.Close()
		return nil, err
	}
	t2 := time.Now()
	tr.record("flashmob.New", "core", root, -1, t0, t1, nil)
	tr.record("serve.New", "serve", root, -1, t1, t2, nil)
	return &target{h: srv.Handler(), ref: sys, runLayer: "core", close: srv.Close}, nil
}

// startChurn builds the serve-churn server: a dynamic system, compacting
// every sc.compactEvery freezes, behind the default serve.Config.
func startChurn(g *graph.CSR, sc *scale, seed uint64, tr *tracer, root int32) (*target, error) {
	t0 := time.Now()
	d, err := flashmob.NewDynamic(g, flashmob.DynamicOptions{
		Algorithm: flashmob.DeepWalk(), Workers: sc.workers, Seed: seed, Undirected: true,
		PlanWalkers: sc.planWalkers, CompactEvery: sc.compactEvery, RecordPaths: true, Metrics: tr != nil,
	})
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	srv, err := serve.New(backends(churnAlgos, nil, nil, d), serve.Config{})
	if err != nil {
		d.Close()
		return nil, err
	}
	t2 := time.Now()
	tr.record("flashmob.NewDynamic", "dyn", root, -1, t0, t1, nil)
	tr.record("serve.New", "serve", root, -1, t1, t2, nil)
	return &target{h: srv.Handler(), dyn: d, runLayer: "core", close: srv.Close}, nil
}

// startSharded builds serve-mixed's system as a coordinator over a
// two-shard TCP-loopback topology whose workers run in process on
// pre-opened ephemeral listeners.
func startSharded(g *graph.CSR, sc *scale, seed uint64, tr *tracer, root int32) (*target, error) {
	const shards = 2
	opt := serveOptions(sc, seed, tr != nil)
	t0 := time.Now()
	sys, err := flashmob.New(g, opt)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	// Each worker builds what flashmob.New builds from the same graph and
	// options, so the shard map and seed schedule agree.
	sorted := graph.SortByDegreeDesc(g).Graph
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var engines []*core.Engine
	stop := func() {
		cancel()
		wg.Wait()
		for _, e := range engines {
			e.Close()
		}
	}
	var lns []net.Listener
	var addrs []string
	for i := 0; i < shards; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			sys.Close()
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	for i := 0; i < shards; i++ {
		// The shards split the nproc engine workers between them.
		e, err := core.New(sorted, algo.DeepWalk(), core.Config{
			Workers: max(1, opt.Workers/shards), Seed: opt.Seed, RecordHistory: true, Metrics: opt.Metrics,
			Part: part.Config{Walkers: opt.PlanWalkers},
		})
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			stop()
			sys.Close()
			return nil, err
		}
		engines = append(engines, e)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = shard.ServeWorker(ctx, lns[i], e, i, addrs) // ends with ctx
		}(i)
	}
	ss, err := flashmob.NewShardedRemote(sys, addrs)
	if err == nil {
		// The mesh is ready once a walk crosses it.
		_, err = ss.WalkMixed(ctx, []flashmob.CohortSpec{{Algorithm: flashmob.DeepWalk(), Walkers: 64, Steps: 2, Seed: 1}})
	}
	if err != nil {
		stop()
		sys.Close()
		return nil, err
	}
	t2 := time.Now()
	srv, err := serve.New(backends(mixedAlgos, sys, ss, nil), serve.Config{})
	if err != nil {
		stop()
		sys.Close()
		return nil, err
	}
	t3 := time.Now()
	tr.record("flashmob.New", "core", root, -1, t0, t1, nil)
	tr.record("shard.mesh", "shard", root, -1, t1, t2, nil)
	tr.record("serve.New", "serve", root, -1, t2, t3, nil)
	return &target{h: srv.Handler(), ref: sys, sharded: ss, runLayer: "shard",
		close: func() { srv.Close(); stop() }}, nil
}

type starter func(g *graph.CSR, sc *scale, seed uint64, tr *tracer, root int32) (*target, error)

// servePlan is one serve workload's offered load.
type servePlan struct {
	start   starter
	algos   []string
	nominal float64   // req/s below capacity: every request must be served
	ladder  []float64 // further open-loop rates, traced passes only; the last exceeds capacity
	sharded float64   // traced passes only: req/s offered to a sharded topology (0: none)
}

func runServeMixed(o options, sc *scale, tr *tracer) (*run, error) {
	return runServe(o, sc, tr, servePlan{startMixed, mixedAlgos, sc.mixedNominal, sc.mixedLadder, sc.shardedRate})
}

func runServeChurn(o options, sc *scale, tr *tracer) (*run, error) {
	return runServe(o, sc, tr, servePlan{startChurn, churnAlgos, sc.mixedNominal, sc.churnLadder, 0})
}

// phase is one stretch of offered load and its replies.
type phase struct {
	rate    float64 // offered req/s; 0 for the closed-loop capacity probe
	seconds float64
	reqs    []walkReq
	replies []reply
	resps   []*serve.WalkResponse // decoded 200 replies (nil otherwise)
	begin   time.Time
	cpu     time.Duration
	steal   time.Duration // stolen from the VM while the phase's goodput was measured
}

// runServe sets the server up several times (reporting the median), then
// offers the nominal rate, open loop, and probes capacity with a closed
// loop. A traced pass then climbs the rest of the rate ladder. Outputs
// are checked once the load has stopped.
func runServe(o options, sc *scale, tr *tracer, plan servePlan) (*run, error) {
	r := newRun()
	zeroLayers(r)
	path, err := cachedGraph(filepath.Join(o.dir, "graphs"), graphKey{sc.servePreset, sc.serveScale, o.seed})
	if err != nil {
		return nil, err
	}
	g, err := loadGraph(path)
	if err != nil {
		return nil, err
	}

	// setup_s is the median of sc.serveSetupReps setups, half before the
	// load and half after it, so that it samples the host at two times.
	// A first, cold setup, which also faults in the code, is left out.
	before := sc.serveSetupReps / 2
	tg, setups, err := setUp(plan, g, sc, o.seed, tr, 1+before)
	if err != nil {
		return nil, err
	}
	setups = setups[1:]
	defer tg.close() // closing twice is harmless
	// peak_rss_mb covers the load alone: the earlier builds' garbage goes
	// back to the OS first, however much of it the collector had kept.
	freshPass()

	nominal := &phase{rate: plan.nominal, seconds: sc.nominalShare * o.seconds}
	probe := &phase{seconds: sc.probeShare * o.seconds}
	phases := []*phase{nominal, probe}
	if tr != nil {
		for _, rate := range plan.ladder {
			phases = append(phases, &phase{rate: rate, seconds: sc.ladderShare * o.seconds})
		}
	}
	src := rng.NewXorShift1024Star(o.seed*0x9e3779b97f4a7c15 + 1)
	var w *writer
	var firstEpoch uint64
	if tg.dyn != nil {
		firstEpoch = tg.dyn.Stats().Epoch
		total := 0.0
		for _, p := range phases {
			total += p.seconds
		}
		w = newWriter(tg.h, sc, src, g.NumVertices(), total, tr)
	}
	keep := tg.ref == nil // hop checks need the positions
	var nextID int64
	g0 := readGoStats()
	for i, p := range phases {
		// Open-loop rungs above the nominal rate overload the server; a
		// short deadline keeps their backlog from outliving the rung.
		timeout := sc.mustServeTimeoutMS
		if p.rate > plan.nominal {
			timeout = sc.overloadTimeoutMS
		}
		rate := p.rate
		if p == probe {
			rate = sc.probeQueriesPerSecond
		}
		p.reqs = schedule(src, nextID, rate, p.seconds, plan.algos, timeout)
		nextID += int64(len(p.reqs))
		var d0 flashmob.DynamicStats
		if tg.dyn != nil {
			d0 = tg.dyn.Stats()
		}
		p.begin = time.Now().Add(2 * time.Millisecond)
		if w != nil && i == 0 {
			w.start(p.begin)
		}
		c0 := cpuTime()
		if p == probe {
			from, until := p.window(sc.warmupSkip)
			stolen := stealBetween(from, until)
			var err error
			p.reqs, p.replies, err = saturate(tg.h, p.reqs, sc.probeClients, until, tr, keep)
			p.steal = <-stolen
			if err != nil {
				r.fail("%v", err)
			}
		} else {
			p.replies = runRung(tg.h, p.reqs, p.begin, tr, keep)
		}
		p.cpu = cpuTime() - c0
		if tg.dyn != nil && p == nominal {
			d1 := tg.dyn.Stats()
			r.set("dyn.compactions", float64(d1.Compactions-d0.Compactions))
			r.set("dyn.epoch_swaps", float64(d1.EpochsCreated-d0.EpochsCreated))
			r.set("dyn.epochs_pinned", float64(d1.EpochsCreated-d1.EpochsRetired))
		}
	}
	var ingests []ingestReply
	if w != nil {
		ingests = w.stop()
	}
	setGoLayer(r, g0, readGoStats())
	if tg.dyn != nil {
		if rep := tg.dyn.MetricsReport(); rep != nil {
			if h, ok := rep.Histogram("dyn_compaction_ns"); ok && h.Count > 0 {
				r.set("dyn.compaction_s.mean", h.Mean()/1e9)
			}
		}
	}
	r.set("peak_rss_mb", peakRSSMB())

	// Checks and figures, off the clock.
	var ck checker
	if tg.ref != nil {
		ck = &refChecker{sys: tg.ref, batch: sc.referenceBatch}
	} else {
		ck = newHopChecker(g, firstEpoch, ingests, r)
	}
	slo := 0.0
	for _, p := range phases {
		// Every request at or below the nominal rate, and every request of
		// the closed loop (which never fills the admission queue), must be
		// served; above it, sheds are expected.
		mustServe := p.rate <= plan.nominal
		p.decode(r, ck, tr, tg.runLayer, mustServe)
		if p == probe {
			continue
		}
		ok := p.meetsSLO(sc.sloP99MS)
		if ok && p.rate > slo {
			slo = p.rate
		}
		lat := p.latencies()
		fmt.Fprintf(os.Stderr, "perfbench: %4.0f req/s: %5d requests, p50 %7.2f ms, p%.1f %7.2f ms, shed %.3f, meets SLO %v\n",
			p.rate, len(lat), median(lat), 100*tailQuantile(len(lat)), quantile(lat, tailQuantile(len(lat))),
			p.shedShare(), ok)
	}
	if err := ck.finish(r); err != nil {
		return nil, err
	}
	nominal.setNominal(r, tg.runLayer)
	gp := probe.goodput(sc.warmupSkip)
	fmt.Fprintf(os.Stderr, "perfbench: closed loop, %d clients: %d requests, goodput %.4g walker-steps/s, %.2f s stolen\n",
		sc.probeClients, len(probe.replies), gp, probe.steal.Seconds())
	if gp <= 0 {
		return nil, fmt.Errorf("the capacity probe completed no request")
	}
	r.set("ns_per_step", 1e9/gp)
	if top := phases[len(phases)-1]; top != probe {
		r.set("serve.slo_qps", slo)
		r.set("serve.goodput_steps_per_s", top.goodput(sc.warmupSkip))
		r.set("serve.shed_share", top.shedShare())
	}
	lags := lagsMS(nominal.replies)
	lagP50, lagP99 := median(lags), quantile(lags, 0.99)
	r.set("gen.lag_ms.p99", lagP99)
	fmt.Fprintf(os.Stderr, "perfbench: generator dispatch lag p50 %.3f ms, p99 %.2f ms at the nominal rate\n", lagP50, lagP99)
	if lagP50 > sc.maxLagMS {
		r.fail("generator ran late: dispatch lag p50 %.1f ms > %.0f ms", lagP50, sc.maxLagMS)
	}
	if len(ingests) > 0 {
		var lat, delta []float64
		for _, in := range ingests {
			lat = append(lat, in.latencyMS())
			delta = append(delta, float64(in.resp.DeltaEdges))
		}
		r.set("dyn.ingest_p50_ms", median(lat))
		r.set("dyn.ingest_tail_ms", quantile(lat, tailQuantile(len(lat))))
		r.set("dyn.delta_edges.mean", mean(delta))
	}
	tg.close()
	last, after, err := setUp(plan, g, sc, o.seed, tr, sc.serveSetupReps-before)
	if err != nil {
		return nil, err
	}
	last.close()
	setups = append(setups, after...)
	fmt.Fprintf(os.Stderr, "perfbench: setup s %.4g\n", setups)
	r.set("setup_s", median(setups))
	if tr != nil && plan.sharded > 0 {
		if err := shardedPhase(o, sc, tr, g, plan.sharded, src, nextID, r); err != nil {
			return nil, err
		}
	}
	if r.attempted > 0 {
		r.set("gen.failed_share", float64(r.failed)/float64(r.attempted))
	}
	return r, nil
}

// setUp builds plan's server n times and returns the last build, still
// running, with every build's time. Each build starts from a heap
// returned to the OS, as a fresh process would: it then faults in the
// same memory whatever ran before it, where on a heap the process kept
// a build after the load ran faster than one before it. A build's time
// excludes its share of steal, as the probe's goodput does.
func setUp(plan servePlan, g *graph.CSR, sc *scale, seed uint64, tr *tracer, n int) (*target, []float64, error) {
	var tg *target
	var times []float64
	for i := 0; i < n; i++ {
		if tg != nil {
			tg.close()
		}
		freshPass()
		root := tr.open("setup", benchLayer, -1, -1, time.Now())
		s0, t0 := stealTime(), time.Now()
		var err error
		if tg, err = plan.start(g, sc, seed, tr, root); err != nil {
			return nil, nil, err
		}
		t1, s1 := time.Now(), stealTime()
		tr.close(root, t1, nil)
		times = append(times, unstolen(t1.Sub(t0), s1-s0).Seconds())
	}
	return tg, times, nil
}

// shardedPhase offers the stream, open loop at rate req/s, to the same
// build run as a coordinator over a two-shard topology: the shard
// exchange and the sharded executor, measured per layer. Its responses
// are checked against direct runs exactly as serve-mixed's are, so equal
// queries get equal trajectories from both.
func shardedPhase(o options, sc *scale, tr *tracer, g *graph.CSR, rate float64, src *rng.XorShift1024Star, firstID int64, r *run) error {
	root := tr.open("setup", benchLayer, -1, -1, time.Now())
	tg, err := startSharded(g, sc, o.seed, tr, root)
	tr.close(root, time.Now(), nil)
	if err != nil {
		return err
	}
	defer tg.close()
	p := &phase{rate: rate, seconds: sc.shardedShare * o.seconds}
	p.reqs = schedule(src, firstID, rate, p.seconds, mixedAlgos, sc.mustServeTimeoutMS)
	p.begin = time.Now().Add(2 * time.Millisecond)
	p.replies = runRung(tg.h, p.reqs, p.begin, tr, false)
	setShardLayer(r, tg.sharded.MetricsReport())
	ck := &refChecker{sys: tg.ref, batch: sc.referenceBatch}
	p.decode(r, ck, tr, tg.runLayer, true)
	if err := ck.finish(r); err != nil {
		return err
	}
	var runMS []float64
	for _, resp := range p.resps {
		if resp != nil {
			runMS = append(runMS, resp.RunMS)
		}
	}
	q := tailQuantile(len(runMS))
	r.set("shard.run_ms.p50", median(runMS))
	r.set("shard.run_ms.p99", quantile(runMS, q))
	lat := p.latencies()
	fmt.Fprintf(os.Stderr, "perfbench: sharded, %4.0f req/s: %5d requests, p50 %7.2f ms, p%.1f %7.2f ms\n",
		rate, len(lat), median(lat), 100*q, quantile(lat, q))
	return nil
}

func lagsMS(replies []reply) []float64 {
	out := make([]float64, len(replies))
	for i := range replies {
		out[i] = replies[i].lagMS()
	}
	return out
}

// decode parses every reply, counts failures, attaches the response's
// own time splits to the handler span, and hands the response to its
// output check.
func (p *phase) decode(r *run, ck checker, tr *tracer, runLayer string, mustServe bool) {
	p.resps = make([]*serve.WalkResponse, len(p.replies))
	for i := range p.replies {
		rp, q := &p.replies[i], &p.reqs[i]
		r.attempted++
		if rp.status != http.StatusOK {
			if mustServe || rp.status != http.StatusServiceUnavailable {
				r.fail("request %d: status %d: %.200s", q.id, rp.status, rp.body)
			}
			continue
		}
		var resp serve.WalkResponse
		if err := json.Unmarshal(rp.body, &resp); err != nil {
			r.fail("request %d: %v", q.id, err)
			continue
		}
		if resp.Algorithm != q.algo || resp.Walkers != q.walkers || resp.Steps != q.steps ||
			!resp.Seeded || resp.Seed != q.seed {
			r.fail("request %d: response does not echo its query", q.id)
			continue
		}
		p.resps[i] = &resp
		tr.split(rp.span,
			piece{"serve.queue", "serve", time.Duration(resp.QueueMS * float64(time.Millisecond))},
			piece{"run", runLayer, time.Duration(resp.RunMS * float64(time.Millisecond))})
		if err := ck.add(q, &resp, rp); err != nil {
			r.fail("request %d: %v", q.id, err)
		}
		rp.body, rp.paths = nil, nil
	}
}

// latencies are the phase's latencies from due time; a failed or shed
// request counts as +Inf.
func (p *phase) latencies() []float64 {
	out := make([]float64, len(p.replies))
	for i := range p.replies {
		out[i] = p.replies[i].latencyMS()
	}
	return out
}

// meetsSLO reports whether the phase's tail latency is within the limit
// and its backlog did not grow: the last third of its requests waited no
// longer than twice the first third, plus 10 ms.
func (p *phase) meetsSLO(limitMS float64) bool {
	lat := p.latencies()
	n := len(lat)
	if n < 30 || quantile(lat, tailQuantile(n)) > limitMS {
		return false
	}
	return median(lat[2*n/3:]) <= 2*median(lat[:n/3])+10
}

func (p *phase) setNominal(r *run, runLayer string) {
	lat := p.latencies()
	q := tailQuantile(len(lat))
	r.set("serve.p50_ms", median(lat))
	r.set("serve.p99_ms", quantile(lat, q))
	r.set("serve.nominal_requests", float64(len(lat)))
	var queue, over, runMS, batch, cohorts []float64
	var steps float64
	for i, resp := range p.resps {
		if resp == nil {
			continue
		}
		rp := &p.replies[i]
		span := float64(rp.done.Sub(rp.sent)) / float64(time.Millisecond)
		queue = append(queue, resp.QueueMS)
		runMS = append(runMS, resp.RunMS)
		over = append(over, span-resp.QueueMS-resp.RunMS)
		batch = append(batch, float64(resp.BatchRequests))
		cohorts = append(cohorts, float64(resp.RunCohorts))
		steps += float64(resp.Walkers * resp.Steps)
	}
	r.set("serve.queue_ms.p50", median(queue))
	r.set("serve.queue_ms.p99", quantile(queue, q))
	r.set("serve.overhead_ms.p50", median(over))
	r.set("serve.overhead_ms.p99", quantile(over, q))
	r.set(runLayer+".run_ms.p50", median(runMS))
	r.set(runLayer+".run_ms.p99", quantile(runMS, q))
	r.set("serve.batch_requests.mean", mean(batch))
	r.set("serve.run_cohorts.mean", mean(cohorts))
	if steps > 0 {
		r.set("cpu_ns_per_step", float64(p.cpu.Nanoseconds())/steps)
	}
}

// window is the part of the phase its goodput covers: all but its first
// share, while queues fill.
func (p *phase) window(skip float64) (from, to time.Time) {
	from = p.begin.Add(time.Duration(skip * p.seconds * float64(time.Second)))
	return from, p.begin.Add(time.Duration(p.seconds * float64(time.Second)))
}

// goodput is the walker-steps per second of requests served within the
// phase's window, over the window's unstolen time.
func (p *phase) goodput(skip float64) float64 {
	from, to := p.window(skip)
	var steps float64
	for i, rp := range p.replies {
		if rp.status == http.StatusOK && !rp.done.Before(from) && rp.done.Before(to) {
			steps += float64(p.reqs[i].walkers * p.reqs[i].steps)
		}
	}
	return steps / unstolen(to.Sub(from), p.steal).Seconds()
}

// stealBetween reports the steal time between from and to, once to has
// passed.
func stealBetween(from, to time.Time) <-chan time.Duration {
	out := make(chan time.Duration, 1)
	go func() {
		time.Sleep(time.Until(from))
		s0 := stealTime()
		time.Sleep(time.Until(to))
		out <- stealTime() - s0
	}()
	return out
}

func (p *phase) shedShare() float64 {
	if len(p.replies) == 0 {
		return 0
	}
	var shed int
	for _, rp := range p.replies {
		if rp.status == http.StatusServiceUnavailable {
			shed++
		}
	}
	return float64(shed) / float64(len(p.replies))
}

// setShardLayer reports the exchange counters per coordinator run.
func setShardLayer(r *run, rep *flashmob.Report) {
	if rep == nil {
		return
	}
	runs, _ := rep.Counter("shard_runs_total")
	if runs.Value == 0 {
		return
	}
	per := func(v float64) float64 { return v / float64(runs.Value) }
	if v, ok := rep.Vector("shard_exchange_frames_total"); ok {
		r.set("shard.frames_per_run", per(float64(v.Total())))
	}
	if v, ok := rep.Vector("shard_exchange_frame_words_total"); ok {
		r.set("shard.frame_words_per_run", per(float64(v.Total())))
	}
	if v, ok := rep.Vector("shard_emigrants_total"); ok {
		r.set("shard.emigrants_per_run", per(float64(v.Total())))
	}
	if c, ok := rep.Counter("shard_supersteps_total"); ok {
		r.set("shard.supersteps_per_run", per(float64(c.Value)))
	}
}
