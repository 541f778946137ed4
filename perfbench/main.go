// Command perfbench is the repository's benchmark: one program that
// runs a named workload against the library (in-process) or against a
// kvserver subprocess (over loopback), checks the outputs, and prints
// one JSON result line.
//
//	perfbench --workload lib-ops --seed 1 --seconds 10 --trace 0 \
//	    --kvserver path/to/kvserver --out path/to/outdir
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics (README.md says which
// end-to-end metric and workload each one should move). run.sh builds
// this program and kvserver from the checkout and runs it.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// Metric units, by metric name. endToEnd and perLayer are the two
// metric sets a run may print; BENCHMARK.json lists the same names.
var endToEnd = map[string]string{
	"ops_per_s":      "1/s",
	"latency_p50_us": "us",
	"latency_p99_us": "us",
	"mem_mb":         "MB",
	"setup_s":        "s",
}

var perLayer = map[string]string{
	"core.move_p50_ns":                "ns",
	"core.move_p99_ns":                "ns",
	"core.transfer_p50_ns":            "ns",
	"core.drain_p50_ns":               "ns",
	"core.move_success_ratio":         "ratio",
	"kcas.publish_per_op":             "1/op",
	"kcas.helps_per_op":               "1/op",
	"kcas.abort_ratio":                "ratio",
	"kcas.descs_carved":               "count",
	"hashmap.get_p50_ns":              "ns",
	"hashmap.put_p50_ns":              "ns",
	"hashmap.del_p50_ns":              "ns",
	"msqueue.op_p50_ns":               "ns",
	"tstack.op_p50_ns":                "ns",
	"hashmap.cas_retries_per_op":      "1/op",
	"tstack.cas_retries_per_op":       "1/op",
	"hashmap.grows":                   "count",
	"hashmap.migrated_per_grow":       "count",
	"hashmap.migrate_steps":           "count",
	"hashmap.move_during_grow_p99_us": "us",
	"mm.allocs_per_op":                "1/op",
	"mm.scans_per_op":                 "1/op",
	"mm.spills":                       "count",
	"arena.nodes_allocated":           "count",
	"go.allocs_per_op":                "1/op",
	"go.gc_cycles":                    "count",
	"go.gc_pause_ms":                  "ms",
	"kvwire.parse_request_ns":         "ns",
	"kvwire.parse_response_ns":        "ns",
	"server.queue_p50_us":             "us",
	"server.parse_p50_us":             "us",
	"server.execute_p50_us":           "us",
	"server.execute_p99_us":           "us",
	"server.write_p50_us":             "us",
	"server.write_p99_us":             "us",
	"server.busy_total":               "count",
	"client.net_residual_p50_us":      "us",
	"client.flushes_per_req":          "1/req",
	"trace.overhead_ratio":            "ratio",
}

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	kvserver string
	out      string
}

// outcome is what a workload reports back: op accounting, the checks'
// verdicts and the measured values.
type outcome struct {
	attempted int64
	failed    int64
	// violations are definite output-check failures; indeterminate are
	// checks that could not be decided; checked counts the checks that
	// ran to a verdict. A run with no decided check is not correct:
	// nothing passes vacuously.
	violations    []string
	indeterminate []string
	checked       int
	metrics       map[string]float64
	// info is printed on a line of its own: chosen sizes, sample
	// counts, anything a reader needs to interpret the metrics.
	info map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, info: map[string]any{}}
}

func (o *outcome) violate(format string, args ...any) {
	o.violations = append(o.violations, fmt.Sprintf(format, args...))
}

// correct reports whether no check found a violation and at least one
// check was decided. Undecided checks are printed, and the ops behind
// them are counted as failed, but they alone do not fail the run.
func (o *outcome) correct() bool { return len(o.violations) == 0 && o.checked > 0 }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config, o *outcome) error{
	"lib-ops":  runLibOps,
	"lib-move": runLibMove,
	"lib-grow": runLibGrow,
	"kv-mix":   runKVMix,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: lib-ops, lib-move, lib-grow or kv-mix")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1: print per-layer metrics (traced run); 0: end-to-end metrics")
	flag.StringVar(&cfg.kvserver, "kvserver", "", "kvserver binary (kv-mix)")
	flag.StringVar(&cfg.out, "out", "", "directory for span dumps and stack dumps")
	round := flag.Int("round", -1, "internal: run one lib-grow round and print its result")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n",
			cfg.workload, cfg.seconds, trace)
		os.Exit(2)
	}
	if cfg.out != "" {
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
	}
	if *round >= 0 {
		runGrowRound(cfg, *round)
	}
	o := newOutcome()
	if err := run(cfg, o); err != nil {
		// The workload could not be run at all: no result line.
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !emit(os.Stdout, cfg, o) {
		os.Exit(1)
	}
}

// emit prints the info and check lines, then the result line as the
// last line of w. It reports whether the run was correct.
func emit(w io.Writer, cfg config, o *outcome) bool {
	o.info["workload"] = cfg.workload
	o.info["seed"] = cfg.seed
	o.info["seconds"] = cfg.seconds
	o.info["trace"] = cfg.trace
	for k, v := range provenance() {
		o.info[k] = v
	}
	if o.attempted > 0 {
		o.info["fail_ratio"] = float64(o.failed) / float64(o.attempted)
	}
	info, _ := json.Marshal(o.info) // map of plain values: cannot fail
	fmt.Fprintf(w, "info %s\n", info)
	for _, v := range o.violations {
		fmt.Fprintf(w, "check FAILED: %s\n", v)
	}
	for _, v := range o.indeterminate {
		fmt.Fprintf(w, "check indeterminate: %s\n", v)
	}
	set := endToEnd
	if cfg.trace {
		set = perLayer
	}
	res := resultLine{
		Correct:   o.correct(),
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	if res.Attempted < 1 {
		// Nothing ran: the result must still say so, and cannot be correct.
		res.Attempted, res.Failed, res.Correct = 1, 1, false
	}
	for name, unit := range set {
		res.Metrics[name] = metricValue{Value: o.metrics[name], Unit: unit}
	}
	line, _ := json.Marshal(res) // plain values: cannot fail
	fmt.Fprintf(w, "%s\n", line)
	return res.Correct
}

// provenance returns the honesty fields every result carries.
func provenance() map[string]any {
	nproc := runtime.NumCPU()
	return map[string]any{
		"nproc":         nproc,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"git_commit":    gitCommit(),
		"source_sha256": sourceDigest(),
		"contended":     nproc >= 2,
	}
}

// sourceDigest hashes every Go source and go.mod file under the working
// directory (hidden directories such as the build directory excluded),
// names included, so a result from a checkout without git history still
// names the code it ran.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, .bench_build and the like
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// gitCommit reads the checkout's HEAD commit without running git:
// .git/HEAD, then the ref it names (loose or packed). A checkout that
// is not a git repository reports "none".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	name, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return name
	}
	if b, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if c, ref, ok := strings.Cut(line, " "); ok && ref == name {
			return c
		}
	}
	return "unknown"
}
