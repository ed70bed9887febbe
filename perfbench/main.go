// Command perfbench is the repository's end-to-end benchmark. One run
// executes one workload for a fixed time, checks the workload's outputs
// against independent recomputations, and prints its metrics as the last
// line of standard output:
//
//	{"correct": true, "attempted": 1500, "failed": 0, "metrics": {...}}
//
// Workloads: explore (pkg/nasaic.Run at the paper budget on W1–W3),
// cosample (random ⟨architectures, design⟩ pairs through the evaluator) and
// service (nasaicd coordinator + worker under a closed loop of two tenant
// clients). With -trace 1 the run records spans around its calls into each
// layer and prints the per-layer metrics instead of the end-to-end ones.
// See README.md for the metric catalogue and how to read it.
//
// It is normally started through run.sh, which builds it and nasaicd first.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// env is what one workload run gets from the command line.
type env struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root; everything the run writes stays under it
	nasaicd  string // path of the nasaicd binary built by run.sh
	tmp      string // per-run temporary directory, removed at exit
	tr       *tracer
}

// deadline returns the instant the measured phase must stop starting new
// rounds, counted from now.
func (e *env) deadline() time.Time {
	return time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
}

// report is what a workload hands back: operation counts, the metrics it
// measured, check failures and a digest of its simulated outcomes.
type report struct {
	attempted, failed int
	e2e               map[string]metric
	layer             map[string]metric
	problems          []string // output-check failures
	digest            []string // printed, never gated
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}}
}

func (r *report) setE2E(name string, v float64) { r.e2e[name] = metric{v, e2eUnits[name]} }

func (r *report) setLayer(name string, v float64) { r.layer[name] = metric{v, layerUnits[name]} }

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// e2eUnits lists every end-to-end metric; each workload reports all of them.
// The operation tail is printed on each workload's summary line instead: on
// this benchmark's 2-vCPU machine it did not repeat within any bound.
var e2eUnits = map[string]string{
	"setup_s":            "s",
	"ops_per_s":          "1/s",
	"op_ms_p50":          "ms",
	"first_event_ms_p50": "ms",
	"alloc_kb_per_op":    "KB",
	"peak_rss_mb":        "MB",
}

// layerUnits lists every per-layer metric. A traced run prints all of them;
// a layer the workload never calls reads 0.
var layerUnits = map[string]string{
	"rl.sample_ms":                       "ms",
	"rl.bptt_ms":                         "ms",
	"rl.update_ms":                       "ms",
	"rl.alloc_kb_per_episode":            "KB",
	"core.refine_ms":                     "ms",
	"core.setup_ms":                      "ms",
	"core.hw_requests":                   "count",
	"core.hw_evals":                      "count",
	"core.hw_deduped":                    "count",
	"core.pruned_episodes":               "count",
	"predictor.trainings":                "count",
	"evalcache.hit_pct":                  "%",
	"maestro.memo_hit_pct":               "%",
	"dnn.decode_us":                      "us",
	"dnn.signature_us":                   "us",
	"core.hweval_us":                     "us",
	"maestro.layer_cost_us":              "us",
	"sched.hap_us":                       "us",
	"predictor.accuracy_us":              "us",
	"runtime.gc_cpu_pct":                 "%",
	"jobs.submit_ms_p50":                 "ms",
	"jobs.done_lag_ms_p50":               "ms",
	"jobs.frames_per_job":                "count",
	"jobs.sse_kb_per_job":                "KB",
	"journal.kb_per_job":                 "KB",
	"journal.segments":                   "count",
	"journal.append_us_p50":              "us",
	"cluster.hop_ms_p50":                 "ms",
	"cluster.coordinator_cpu_ms_per_job": "ms",
	"jobs.worker_cpu_ms_per_job":         "ms",
	"trace.overhead_pct":                 "%",
}

var workloads = map[string]func(context.Context, *env) (*report, error){
	"explore":  runExplore,
	"cosample": runCosample,
	"service":  runService,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		e     env
		trace int
	)
	flag.StringVar(&e.workload, "workload", "", "workload to run: explore, cosample or service")
	flag.Int64Var(&e.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&e.seconds, "seconds", 20, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.StringVar(&e.root, "root", ".", "root of the nasaic checkout")
	flag.StringVar(&e.nasaicd, "nasaicd", "", "nasaicd binary (service workload)")
	flag.Parse()
	e.trace = trace == 1
	fn, ok := workloads[e.workload]
	if !ok || e.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: -workload %q -seconds %g -trace %d\n", e.workload, e.seconds, trace)
		return 2
	}
	root, err := filepath.Abs(e.root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	e.root = root
	base := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if e.tmp, err = os.MkdirTemp(base, e.workload+"-"); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(e.tmp)
	e.tr = newTracer(e.trace)

	fmt.Printf("env nproc=%d gomaxprocs=%d go=%s commit=%s tree=%s workload=%s seed=%d seconds=%g trace=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), treeDigest(root),
		e.workload, e.seed, e.seconds, e.trace)

	// An interrupt cancels the workload; its deferred cleanups stop the
	// daemons and the temp dir goes with the defer above.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := fn(ctx, &e)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "perfbench: interrupted")
			return 130
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", e.workload, err)
		return 2
	}
	if e.trace {
		if path, err := e.tr.write(filepath.Join(root, ".bench_build"), e.workload, e.seed); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		} else {
			fmt.Printf("spans %d written to %s\n", e.tr.len(), path)
		}
	}
	for _, d := range rep.digest {
		fmt.Println("digest", d)
	}
	for _, p := range rep.problems {
		fmt.Println("CHECK FAILED:", p)
	}

	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed}
	if e.trace {
		out.Metrics = rep.layer
		for name, unit := range layerUnits {
			if _, ok := out.Metrics[name]; !ok {
				out.Metrics[name] = metric{0, unit}
			}
		}
	} else {
		out.Metrics = rep.e2e
		if missing := missingKeys(e2eUnits, rep.e2e); len(missing) > 0 {
			panic(fmt.Sprintf("perfbench: %s did not report %v", e.workload, missing))
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if !out.Correct || out.Attempted < 1 {
		return 1
	}
	return 0
}

func missingKeys(want map[string]string, got map[string]metric) []string {
	var out []string
	for k := range want {
		if _, ok := got[k]; !ok {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
