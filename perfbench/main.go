// Command perfbench is the repository benchmark: it drives each layer of
// the FlashMob reproduction from outside, through the flashmob facade and
// read-only calls into internal/{graph,part,core,ooc,serve,dyn,shard},
// checks every output, and prints one JSON result line.
//
//	perfbench --workload offline --seed 1 --seconds 10 --trace 0
//
// Workloads are offline, serve-mixed and serve-churn (README.md explains
// each and the metrics). With --trace 0 the result
// carries the end-to-end metrics; with --trace 1 the workload runs once
// untraced and once traced, and the result carries the per-layer metrics,
// the layers' self-time split and the tracing overhead. Run it through
// run.py, which builds it from source first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"flashmob/internal/perfgate"
)

// result is one run's outcome: the operation counts the checks produce
// and every metric by name.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is what one measured pass of a workload produces: the end-to-end
// and per-layer values, the operation counts, and any check failures.
type run struct {
	values    map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

func newRun() *run { return &run{values: map[string]float64{}} }

func (r *run) set(name string, v float64) { r.values[name] = v }

// fail records a failed operation and why.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// options is the command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    string // full; the tests run at tiny
	dir      string // build directory: graph cache and trace files
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: "+fmt.Sprint(workloadNames()))
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: every input derives from it")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per pass")
	flag.IntVar(&traceFlag, "trace", 0, "1: report the per-layer metrics of a traced run")
	flag.StringVar(&o.dir, "dir", ".bench_build", "directory for the graph cache and trace files")
	flag.Parse()
	o.trace = traceFlag == 1
	o.scale = "full"
	res, err := execute(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// workloadFunc runs one pass of a workload. The tracer is nil on
// untraced passes.
type workloadFunc func(o options, sc *scale, tr *tracer) (*run, error)

var workloads = map[string]workloadFunc{
	"offline":     runOffline,
	"serve-mixed": runServeMixed,
	"serve-churn": runServeChurn,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// execute runs the workload (twice under --trace 1: untraced, then
// traced) and folds the passes into the result line.
func execute(o options) (*result, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames())
	}
	sc, err := scaleFor(o.scale)
	if err != nil {
		return nil, err
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	printMeta(o)
	plain, err := fn(o, sc, nil)
	if err != nil {
		return nil, err
	}
	runs := []*run{plain}
	names := endToEnd
	values := plain.values
	if o.trace {
		tr := newTracer()
		traced, err := fn(o, sc, tr)
		if err != nil {
			return nil, err
		}
		runs = append(runs, traced)
		tr.attribute(traced)
		for _, m := range endToEnd {
			traced.set("trace.overhead."+m.Name, traced.values[m.Name]-plain.values[m.Name])
		}
		path := filepath.Join(o.dir, "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", len(tr.spans), path)
		names = perLayer
		values = traced.values
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, r := range runs {
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, p := range r.problems {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
		}
	}
	if res.Failed > 0 || res.Attempted < 1 {
		res.Correct = false
	}
	for _, m := range names {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", o.workload, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	return res, nil
}

// printMeta stamps the run's provenance on standard output, ahead of the
// result line: commit, host fingerprint, nproc and last-level cache size.
func printMeta(o options) {
	meta := struct {
		perfgate.Meta
		Workload string  `json:"workload"`
		Seed     uint64  `json:"seed"`
		Seconds  float64 `json:"seconds"`
		Trace    bool    `json:"trace"`
		Scale    string  `json:"scale"`
		NProc    int     `json:"nproc"`
		LLCBytes uint64  `json:"llc_bytes"`
		Start    string  `json:"start"`
	}{perfgate.NewMeta(), o.workload, o.seed, o.seconds, o.trace, o.scale,
		runtime.NumCPU(), llcBytes(), time.Now().UTC().Format(time.RFC3339)}
	b, _ := json.Marshal(meta)
	fmt.Printf("meta %s\n", b)
}
