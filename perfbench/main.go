// Command perfbench is the repository benchmark. It runs one workload for
// a fixed number of seconds, checks every answer against an oracle that
// shares no code with the engine, and prints one JSON result line:
//
//	perfbench --workload warehouse_sql --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the run records spans around the calls it makes into each layer and
// reports per-layer metrics instead. A wrong answer makes the command exit
// non-zero. `perfbench compare <dirA> <dirB>` compares two sets of result
// records written with -out, and `perfbench saturate` measures the
// capacity serve_ingest's rates are set from. README.md describes the
// workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// config is one run's command line.
type config struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	workDir    string
	out        string
	cpuProfile string
	memProfile string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadFunc runs one workload and returns what it measured. A returned
// error means the run could not complete; wrong answers are collected in
// outcome.wrong instead so the result line still prints.
type workloadFunc func(ctx context.Context, cfg config, tr *tracer) (*outcome, error)

var workloads = map[string]workloadFunc{
	"warehouse_sql":  runWarehouse,
	"ask_enterprise": runAsk,
	"serve_ingest":   runServe,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "saturate" {
		if err := saturateMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench saturate:", err)
			os.Exit(2)
		}
		return
	}
	os.Exit(benchMain(os.Args[1:]))
}

func parseFlags(args []string) (config, error) {
	var cfg config
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: warehouse_sql, ask_enterprise or serve_ingest")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured phase in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	fs.StringVar(&cfg.workDir, "workdir", ".bench_build/perfbench", "directory for data directories and span files")
	fs.StringVar(&cfg.out, "out", "", "also write the result, with workload and seed, to this file (input of compare)")
	fs.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a CPU profile of the traced run to this file (needs --trace 1)")
	fs.StringVar(&cfg.memProfile, "memprofile", "", "write a heap profile at the end of the traced run to this file (needs --trace 1)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	cfg.trace = traceFlag == 1
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("--seconds must be positive")
	}
	// Profiles perturb timing, so they are only taken on traced runs,
	// whose numbers are per-layer breakdowns rather than end-to-end.
	if !cfg.trace && (cfg.cpuProfile != "" || cfg.memProfile != "") {
		return cfg, errors.New("-cpuprofile and -memprofile need --trace 1")
	}
	return cfg, nil
}

func benchMain(args []string) int {
	cfg, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	stopProfile, err := startCPUProfile(cfg.cpuProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	oc, err := workloads[cfg.workload](context.Background(), cfg, tr)
	stopProfile()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if cfg.memProfile != "" {
		if err := writeHeapProfile(cfg.memProfile); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
	}
	if tr != nil {
		path := filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.writeFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "spans: %d written to %s\n", len(tr.spans), path)
	}
	res := oc.result(cfg.trace)
	for _, w := range oc.wrong {
		fmt.Fprintln(os.Stderr, "WRONG:", w)
	}
	printSummary(os.Stderr, cfg, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if cfg.out != "" {
		if err := writeRecord(cfg, res, oc.refusals); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
	}
	if rf := oc.refusals; rf != nil {
		fmt.Printf("refusals: %d of %d questions, digest %s\n", rf.Refused, rf.Questions, rf.Digest)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func startCPUProfile(path string) (func(), error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// record is what -out writes: the result plus what identifies the run.
type record struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Trace    bool      `json:"trace"`
	Refusals *refusals `json:"refusals,omitempty"`
	Result   result    `json:"result"`
}

func writeRecord(cfg config, res result, rf *refusals) error {
	b, err := json.Marshal(record{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Refusals: rf, Result: res})
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.out, append(b, '\n'), 0o644)
}

func printSummary(w io.Writer, cfg config, res result) {
	fmt.Fprintf(w, "%s seed=%d trace=%v correct=%v attempted=%d failed=%d\n",
		cfg.workload, cfg.seed, cfg.trace, res.Correct, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// outcome is what a workload measured in one run.
type outcome struct {
	setup []float64 // seconds per set-up repetition

	// Untraced measured phase.
	lat       []float64 // ms per operation, from its start (closed loop) or due time (open loop)
	busy      float64   // seconds the client spent waiting on operations
	attempted int64
	failed    int64 // operations that returned an error the workload does not expect
	refused   int64 // operations answered with a refusal: simulated-model failure or 429
	rt        rtDelta
	rtOps     int64 // operations rt covers

	ingestRate []float64   // rows per second, per load phase
	ingestLat  [][]float64 // ms per load step, per load phase; every phase runs the same steps

	layers   map[string]metric // per-layer metrics of a traced run
	refusals *refusals         // ask_enterprise only
	wrong    []string          // correctness failures
}

// refusals is which questions the simulated model refused, as a count and
// a digest of their sorted ids. Both repeat exactly on a seed.
type refusals struct {
	Refused   int    `json:"refused"`
	Questions int    `json:"questions"`
	Digest    string `json:"digest"`
}

// wrongf records a correctness failure; the run still completes so the
// result line reports it.
func (o *outcome) wrongf(format string, args ...any) {
	if len(o.wrong) < 50 {
		o.wrong = append(o.wrong, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) result(traced bool) result {
	res := result{
		Correct:   len(o.wrong) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Correct = false
	}
	if traced {
		res.Metrics = o.layers
		return res
	}
	ops := float64(o.rtOps)
	res.Metrics["setup_s"] = metric{median(o.setup), "s"}
	res.Metrics["throughput_ops_s"] = metric{float64(len(o.lat)) / o.busy, "1/s"}
	res.Metrics["latency_p50_ms"] = metric{percentile(o.lat, 50), "ms"}
	res.Metrics["latency_p95_ms"] = metric{percentile(o.lat, 95), "ms"}
	res.Metrics["success_ratio"] = metric{float64(o.attempted-o.failed-o.refused) / float64(o.attempted), "ratio"}
	res.Metrics["alloc_bytes_per_op"] = metric{o.rt.allocBytes / ops, "B"}
	res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	res.Metrics["ingest_rows_s"] = metric{median(o.ingestRate), "1/s"}
	res.Metrics["ingest_p95_ms"] = metric{stepP95(o.ingestLat), "ms"}
	return res
}

// deadline starts the measured phase and returns when it ends, cfg.seconds
// from now.
func deadline(cfg config) time.Time {
	startMeasuredPhase()
	return time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
}
