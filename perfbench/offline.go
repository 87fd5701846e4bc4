package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"flashmob/internal/algo"
	"flashmob/internal/core"
	"flashmob/internal/graph"
	"flashmob/internal/mem"
	"flashmob/internal/obs"
	"flashmob/internal/ooc"
	"flashmob/internal/part"
	"flashmob/internal/profile"
	"flashmob/internal/rng"
	"flashmob/internal/walk"
)

// node2vecSpec is the second-order walk every workload runs.
func node2vecSpec() algo.Spec { return algo.Node2Vec(4, 0.25) }

// offlineBuild is the ready state setup produces.
type offlineBuild struct {
	g    *graph.CSR
	plan *part.Plan
	dw   *core.Engine
}

// setupOffline performs flashmob.New's sequence from the graph file —
// load, graph.SortByDegreeDesc, part.PlanMCKP, core.New with that plan —
// and records each step.
func setupOffline(path string, sc *scale, seed uint64, tr *tracer, t *setupTimes) (*offlineBuild, error) {
	root := tr.open("setup", benchLayer, -1, -1, time.Now())
	s0, t0 := stealTime(), time.Now()
	g, err := loadGraph(path)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	sorted := graph.SortByDegreeDesc(g).Graph
	t2 := time.Now()
	plan, err := part.PlanMCKP(sorted, part.Config{
		Walkers: uint64(sorted.NumVertices()),
		Model:   profile.NewAnalyticalModel(mem.PaperGeometry()),
	})
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	dw, err := core.New(sorted, algo.DeepWalk(), core.Config{
		Workers: sc.workers, Seed: seed, Plan: plan, RecordHistory: true, Metrics: tr != nil,
	})
	if err != nil {
		return nil, err
	}
	t4, s1 := time.Now(), stealTime()
	tr.record("graph.ReadBinary", "graph", root, -1, t0, t1, nil)
	tr.record("graph.SortByDegreeDesc", "graph", root, -1, t1, t2, nil)
	tr.record("part.PlanMCKP", "part", root, -1, t2, t3, nil)
	tr.record("core.New", "core", root, -1, t3, t4, nil)
	tr.close(root, t4, nil)
	t.add(t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3), s1-s0)
	return &offlineBuild{g: sorted, plan: plan, dw: dw}, nil
}

// setupTimes collects the setup repetitions. The total excludes the
// setup's share of steal, as the walk passes' wall times do; the stages
// are wall time.
type setupTimes struct{ total, load, sort, plan, build []float64 }

func (t *setupTimes) add(load, sort, plan, build, steal time.Duration) {
	t.load = append(t.load, load.Seconds())
	t.sort = append(t.sort, sort.Seconds())
	t.plan = append(t.plan, plan.Seconds())
	t.build = append(t.build, build.Seconds())
	t.total = append(t.total, unstolen(load+sort+plan+build, steal).Seconds())
}

// passStats accumulates one walk kind's passes.
type passStats struct {
	ns, cpu, sample, other, fwd, rev []float64
	barrierNS, stageNS               float64
}

func (p *passStats) addCore(res *core.Result, cpu, steal time.Duration) {
	steps := float64(res.TotalSteps)
	p.ns = append(p.ns, float64(unstolen(res.Duration, steal).Nanoseconds())/steps)
	p.cpu = append(p.cpu, float64(cpu.Nanoseconds())/steps)
	p.sample = append(p.sample, float64(res.SampleTime.Nanoseconds())/steps)
	p.other = append(p.other, float64(res.OtherTime.Nanoseconds())/steps)
	p.fwd = append(p.fwd, float64(res.ShuffleFwdTime.Nanoseconds())/steps)
	p.rev = append(p.rev, float64(res.ShuffleRevTime.Nanoseconds())/steps)
	p.barrierNS += barrierNS(res.Report)
	p.stageNS += float64((res.SampleTime + res.ShuffleTime).Nanoseconds())
}

func barrierNS(rep *obs.Report) float64 {
	if rep == nil {
		return 0
	}
	c, _ := rep.Counter("pool_barrier_wait_ns")
	return float64(c.Value)
}

// runOffline is corpus generation on a graph larger than the last-level
// cache: repeated DeepWalk and node2vec passes at |V| walkers with paths
// recorded, and out-of-core DeepWalk passes streaming the same graph from
// its file.
func runOffline(o options, sc *scale, tr *tracer) (*run, error) {
	r := newRun()
	zeroLayers(r)
	path, err := cachedGraph(filepath.Join(o.dir, "graphs"), graphKey{"YH", sc.offlineScale, o.seed})
	if err != nil {
		return nil, err
	}

	// setup_s is the median of sc.setupReps setups, each from a collected
	// heap, so none pays for the garbage of the one before it. A first,
	// cold setup, which also faults that heap in from the OS, is left
	// out.
	var st setupTimes
	var b *offlineBuild
	for i := 0; i <= sc.setupReps; i++ {
		if b != nil {
			b.dw.Close()
			b = nil
		}
		betweenPasses()
		t := &st
		if i == 0 {
			t = &setupTimes{}
		}
		if b, err = setupOffline(path, sc, o.seed, tr, t); err != nil {
			return nil, err
		}
	}
	defer b.dw.Close()
	fmt.Fprintf(os.Stderr, "perfbench: setup s %.4g\n", st.total)
	r.set("setup_s", median(st.total))
	r.set("graph.load_s", median(st.load))
	r.set("graph.sort_s", median(st.sort))
	r.set("part.plan_s", median(st.plan))
	r.set("core.build_s", median(st.build))
	r.set("part.vps", float64(b.plan.NumVPs()))
	var ps uint32
	for _, vp := range b.plan.VPs {
		if vp.Policy == profile.PS {
			ps += vp.Vertices()
		}
	}
	r.set("part.ps_vertex_share", float64(ps)/float64(b.g.NumVertices()))

	n2v, err := core.New(b.g, node2vecSpec(), core.Config{
		Workers: sc.workers, Seed: o.seed, Plan: b.plan, RecordHistory: true, Metrics: tr != nil,
	})
	if err != nil {
		return nil, err
	}
	defer n2v.Close()
	gf, err := graph.OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer gf.Close()
	oocCfg := ooc.Config{
		BlockBudget: sc.blockBudget, ResidentBudget: sc.residentBudget,
		Seed: o.seed, Workers: sc.workers, Metrics: tr != nil,
	}
	oe, err := ooc.New(gf, oocCfg)
	if err != nil {
		return nil, err
	}
	defer oe.Close()

	// The passes run in rounds of DeepWalk, node2vec and out-of-core
	// DeepWalk. A warm-up round runs first, off the clock, each pass from
	// a heap returned to the OS, so its peak RSS is a function of the pass
	// alone. Timed rounds keep the heap and only collect the previous
	// pass's garbage. The graph file was just read in full, so the
	// out-of-core passes read it from a warm page cache.
	var dws, n2vs passStats
	var passRSS, oocNS, oocCPU []float64
	var oocIOWait, oocDur, oocBytes, oocSteps, hits, misses float64
	hopSrc := rng.NewXorShift1024Star(o.seed ^ 0x9e3779b97f4a7c15)
	round := func(timed bool) {
		prep, t := freshPass, (*tracer)(nil)
		if timed {
			prep, t = betweenPasses, tr
		}
		for _, kind := range []struct {
			name  string
			eng   *core.Engine
			steps int
			acc   *passStats
		}{{"deepwalk", b.dw, sc.dwSteps, &dws}, {"node2vec", n2v, sc.n2vSteps, &n2vs}} {
			prep()
			r.attempted++
			root := t.open("pass."+kind.name, benchLayer, -1, -1, time.Now())
			s0, c0, t0 := stealTime(), cpuTime(), time.Now()
			res, err := kind.eng.Run(0, kind.steps)
			t1, c1, s1 := time.Now(), cpuTime(), stealTime()
			if err != nil {
				r.fail("%s pass: %v", kind.name, err)
				continue
			}
			traceCoreRun(t, root, "core.Engine.Run", t0, t1, res)
			t.close(root, t1, nil)
			if timed {
				kind.acc.addCore(res, c1-c0, s1-s0)
			} else {
				passRSS = append(passRSS, peakRSSMB())
			}
			if err := checkHops(b.g, res.History, sc.hopSample, hopSrc); err != nil {
				r.fail("%s pass: %v", kind.name, err)
			}
		}
		prep()
		r.attempted++
		root := t.open("pass.ooc", benchLayer, -1, -1, time.Now())
		s0, c0, t0 := stealTime(), cpuTime(), time.Now()
		res, err := oe.Run(context.Background(), 0, sc.oocSteps)
		t1, c1, s1 := time.Now(), cpuTime(), stealTime()
		if err != nil {
			r.fail("ooc pass: %v", err)
			return
		}
		t.record("ooc.Engine.Run", "ooc", root, -1, t0, t1, map[string]float64{
			"io_wait_ns": float64(res.IOWait.Nanoseconds()), "bytes_read": float64(res.BytesRead),
		})
		t.close(root, t1, nil)
		if !timed {
			passRSS = append(passRSS, peakRSSMB())
			return
		}
		oocNS = append(oocNS, float64(unstolen(res.Duration, s1-s0).Nanoseconds())/float64(res.TotalSteps))
		oocCPU = append(oocCPU, float64((c1-c0).Nanoseconds())/float64(res.TotalSteps))
		oocIOWait += float64(res.IOWait.Nanoseconds())
		oocDur += float64(res.Duration.Nanoseconds())
		oocBytes += float64(res.BytesRead)
		oocSteps += float64(res.TotalSteps)
		if rep := res.Report; rep != nil {
			h, _ := rep.Counter("ooc_resident_hits_total")
			m, _ := rep.Counter("ooc_resident_misses_total")
			hits += float64(h.Value)
			misses += float64(m.Value)
		}
	}
	round(false)
	g0 := readGoStats()
	start := time.Now()
	for n := 0; n < sc.minRounds || time.Since(start).Seconds() < o.seconds; n++ {
		round(true)
	}
	setGoLayer(r, g0, readGoStats())
	fmt.Fprintf(os.Stderr, "perfbench: ns/step deepwalk %.4g, node2vec %.4g, ooc %.4g; warm-up peak RSS MB %.4g\n", dws.ns, n2vs.ns, oocNS, passRSS)
	if len(dws.ns) == 0 || len(n2vs.ns) == 0 || len(oocNS) == 0 || len(passRSS) == 0 {
		return nil, fmt.Errorf("offline: a walk kind completed no pass")
	}

	r.attempted++
	if err := checkOOCEquivalence(gf, b.g, oocCfg, sc, o.seed); err != nil {
		r.fail("ooc vs in-memory: %v", err)
	}

	dwNS, n2vNS, oNS := median(dws.ns), median(n2vs.ns), median(oocNS)
	r.set("ns_per_step", geomean(dwNS, n2vNS, oNS))
	r.set("cpu_ns_per_step", geomean(median(dws.cpu), median(n2vs.cpu), median(oocCPU)))
	// The walk footprint: the largest warm-up pass's VmHWM. Setup's
	// transient peak, two copies of the graph while it is sorted, moves by
	// hundreds of MB with when the collector happens to run, so it is left
	// out.
	r.set("peak_rss_mb", slices.Max(passRSS))
	r.set("core.dw.ns_per_step", dwNS)
	r.set("core.n2v.ns_per_step", n2vNS)
	r.set("core.dw.sample_ns_per_step", median(dws.sample))
	r.set("core.n2v.sample_ns_per_step", median(n2vs.sample))
	r.set("core.other_ns_per_step", median(dws.other))
	r.set("walk.shuffle_fwd_ns_per_step", median(dws.fwd))
	r.set("walk.shuffle_rev_ns_per_step", median(dws.rev))
	r.set("walk.shuffle_ns_per_step", median(dws.fwd)+median(dws.rev))
	if stage := dws.stageNS + n2vs.stageNS; stage > 0 {
		r.set("pool.barrier_wait_share", (dws.barrierNS+n2vs.barrierNS)/stage)
	}
	r.set("ooc.ns_per_step", oNS)
	r.set("ooc.io_wait_share", oocIOWait/oocDur)
	r.set("ooc.bytes_read_per_step", oocBytes/oocSteps)
	if hits+misses > 0 {
		r.set("ooc.resident_hit_share", hits/(hits+misses))
	}
	return r, nil
}

// traceCoreRun records an engine run and lays its Result.Timing out as
// child spans: sample (core), shuffle forward and reverse (walk), and the
// pool's barrier wait, carved from both stages in proportion. The rest of
// the run (walker init, history) stays the core span's self time.
func traceCoreRun(tr *tracer, parent int32, name string, t0, t1 time.Time, res *core.Result) {
	if tr == nil {
		return
	}
	barrier := time.Duration(barrierNS(res.Report))
	keep := 1.0
	if stage := res.SampleTime + res.ShuffleTime; stage > 0 && barrier > 0 {
		keep = 1 - min(1, float64(barrier)/float64(stage))
	}
	id := tr.record(name, "core", parent, -1, t0, t1, map[string]float64{
		"sample_ns": float64(res.SampleTime), "shuffle_fwd_ns": float64(res.ShuffleFwdTime),
		"shuffle_rev_ns": float64(res.ShuffleRevTime), "other_ns": float64(res.OtherTime),
		"barrier_wait_ns": float64(barrier),
	})
	scaled := func(d time.Duration) time.Duration { return time.Duration(float64(d) * keep) }
	tr.split(id,
		piece{"sample", "core", scaled(res.SampleTime)},
		piece{"shuffle.forward", "walk", scaled(res.ShuffleFwdTime)},
		piece{"shuffle.reverse", "walk", scaled(res.ShuffleRevTime)},
		piece{"pool.barrier", "pool", barrier})
}

// checkHops verifies that every hop of a seeded sample of walkers is an
// edge of g (every vertex has an out-edge, so walkers never stand still).
func checkHops(g *graph.CSR, h *walk.History, sample int, src *rng.XorShift1024Star) error {
	if h == nil || h.NumSteps() < 2 {
		return fmt.Errorf("no paths recorded")
	}
	n := h.NumWalkers()
	for k := 0; k < sample; k++ {
		j := int(src.Uint32n(uint32(n)))
		for i := 1; i < h.NumSteps(); i++ {
			if u, v := h.At(i-1, j), h.At(i, j); !g.HasEdge(u, v) {
				return fmt.Errorf("walker %d step %d: %d→%d is not an edge", j, i, u, v)
			}
		}
	}
	return nil
}

// checkOOCEquivalence runs out-of-core DeepWalk and in-memory DeepWalk
// on the out-of-core engine's plan with the same seed, and compares the
// trajectories' hashes.
func checkOOCEquivalence(gf *graph.File, g *graph.CSR, cfg ooc.Config, sc *scale, seed uint64) error {
	cfg.RecordHistory, cfg.Metrics = true, false
	oe, err := ooc.New(gf, cfg)
	if err != nil {
		return err
	}
	defer oe.Close()
	got, err := oe.Run(context.Background(), sc.equivWalkers, sc.equivSteps)
	if err != nil {
		return err
	}
	ce, err := core.New(g, algo.DeepWalk(), core.Config{
		Workers: sc.workers, Seed: seed, Plan: oe.Plan(), RecordHistory: true,
	})
	if err != nil {
		return err
	}
	defer ce.Close()
	want, err := ce.Run(sc.equivWalkers, sc.equivSteps)
	if err != nil {
		return err
	}
	if a, b := historyCRC(got.History), historyCRC(want.History); a != b {
		return fmt.Errorf("trajectory hash %08x, in-memory %08x", a, b)
	}
	return nil
}

func historyCRC(h *walk.History) uint32 {
	var crc uint32
	for i := 0; i < h.NumSteps(); i++ {
		row := make([]graph.VID, h.NumWalkers())
		for j := range row {
			row[j] = h.At(i, j)
		}
		crc = crcOfVIDs(crc, row)
	}
	return crc
}
