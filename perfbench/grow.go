package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro"
)

// lib-grow: migrate a full map into a fresh one.

type libGrow struct {
	seed     uint64
	th       *repro.Thread
	src, dst *repro.HashMap
}

// runLibGrow migrates growKeys keys from a full map into a fresh one,
// round after round, until the rounds add up to the run's seconds. Each
// round runs in a child process (runGrowRound) on a fresh runtime, so a
// round that hangs in the library is dumped, counted and killed without
// taking the rest of the run with it.
func runLibGrow(cfg config, o *outcome) error {
	o.info["sizes"] = map[string]any{
		"workers": libWorkers, "keys_per_round": growKeys, "src_buckets": growSrcBkts,
		"dst_initial_buckets": growDstBkts,
		"mix":                 "move=100",
		"loop":                "fixed work per round, fresh process and runtime per round",
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		window /= 2
		// Each traced round writes its own span file; drop a previous
		// run's so every file present belongs to this run.
		old, _ := filepath.Glob(filepath.Join(cfg.out, "spans-lib-grow-r*.jsonl"))
		for _, f := range old {
			os.Remove(f)
		}
	}
	var setups, rss, p50s, p99s []float64
	rates := map[bool][]float64{}
	layer := map[string][]float64{}
	hung, checked := 0, 0
	round := 0
	for _, traced := range []bool{false, true} {
		if traced && !cfg.trace {
			break
		}
		for start := time.Now(); time.Since(start) < window && round < maxGrowRounds; round++ {
			r, err := growRoundChild(self, cfg, round, traced)
			if err != nil {
				return err
			}
			setups = append(setups, r.SetupS)
			o.attempted += r.Attempted
			o.failed += r.Failed
			for _, v := range r.Violations {
				o.violate("round %d: %s", round, v)
			}
			if r.Hung != "" {
				hung++
				o.indeterminate = append(o.indeterminate, fmt.Sprintf(
					"round %d not checked: watchdog expired (%s) with an op still running", round, r.Hung))
				continue
			}
			checked++
			rates[traced] = append(rates[traced], growKeys/r.ElapsedS)
			if !traced {
				rss = append(rss, r.RSSMB)
				p50s = append(p50s, r.LatP50US)
				p99s = append(p99s, r.LatP99US)
				continue
			}
			for k, v := range r.Layer {
				layer[k] = append(layer[k], v)
			}
		}
	}
	o.checked += checked
	o.info["rounds"] = round
	o.info["rounds_hung"] = hung
	o.info["round_rates"] = rates[false]
	o.info["setup_runs_s"] = setups
	if !cfg.trace {
		o.metrics["setup_s"] = median(setups)
		o.metrics["ops_per_s"] = median(rates[false])
		o.metrics["latency_p50_us"] = median(p50s)
		o.metrics["latency_p99_us"] = median(p99s)
		o.metrics["mem_mb"] = median(rss)
		return nil
	}
	for k, vs := range layer {
		o.metrics[k] = median(vs)
	}
	if t := median(rates[true]); t > 0 {
		o.metrics["trace.overhead_ratio"] = median(rates[false]) / t
	}
	return nil
}

// maxGrowRounds bounds a run's rounds whatever their speed.
const maxGrowRounds = 400

// roundResult is what one lib-grow round reports to its parent, as the
// last line of its output.
type roundResult struct {
	SetupS, ElapsedS   float64
	Attempted, Failed  int64
	Hung               string
	LatP50US, LatP99US float64
	RSSMB              float64
	Violations         []string
	Layer              map[string]float64 // traced rounds only
}

// growRoundChild runs one round in a child process, passes its output
// lines on and returns its result.
func growRoundChild(self string, cfg config, round int, traced bool) (roundResult, error) {
	var r roundResult
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(self, "--workload", "lib-grow", "--seed", strconv.FormatUint(cfg.seed, 10),
		"--trace", tr, "--out", cfg.out, "--round", strconv.Itoa(round))
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Start(); err != nil {
		return r, fmt.Errorf("round %d: %w", round, err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		// The child's own watchdog should have ended it long before.
		cmd.Process.Kill()
		<-done
		return r, fmt.Errorf("round %d: child did not finish within 60s", round)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	last := lines[len(lines)-1]
	for _, l := range lines[:len(lines)-1] {
		fmt.Println(l)
	}
	if jerr := json.Unmarshal([]byte(last), &r); jerr != nil {
		return r, fmt.Errorf("round %d: no result (exit: %v): %q", round, err, last)
	}
	return r, nil
}

// runGrowRound is the child side: one round on a fresh runtime, its
// result printed as the last line.
func runGrowRound(cfg config, round int) {
	t0 := time.Now()
	rt := repro.NewRuntime(runtimeConfig(cfg.trace))
	l := newLibGrow(rt, cfg.seed)
	r := roundResult{SetupS: time.Since(t0).Seconds()}
	ws := newWorkers(rt, growStreams(cfg.seed, uint64(round)), true)
	before := readCounters(rt, l)
	res := runLoop(ws, l.step, loopSpec{traced: cfg.trace, spanEvery: 8, stall: roundStallLimit, out: cfg.out})
	after := readCounters(rt, l)
	for _, p := range res.panicked {
		fmt.Printf("worker panic: %s\n", p)
	}
	r.Attempted, r.Failed, r.ElapsedS, r.Hung = res.attempted, res.failed, res.elapsed, res.hung
	if res.hung == "" {
		o := newOutcome()
		l.check(o)
		r.Violations = o.violations
		lat := latencies(ws)
		r.LatP50US = float64(quantile(lat, 0.50)) / 1e3
		r.LatP99US = float64(quantile(lat, 0.99)) / 1e3
		r.RSSMB, _ = peakRSSMB("self") // 0 if unreadable: the median shows it
		if cfg.trace {
			r.Layer = growLayer(ws, before, after, res.ops)
			logs := make([]*spanLog, len(ws))
			for i, w := range ws {
				logs[i] = w.spans
			}
			if err := writeSpans(cfg.out, fmt.Sprintf("lib-grow-r%d", round), logs); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
			}
		}
	}
	line, _ := json.Marshal(r) // plain values: cannot fail
	fmt.Printf("%s\n", line)
	os.Exit(0) // a hung worker is still spinning: do not wait for it
}

// growLayer is one traced round's per-layer metrics.
func growLayer(ws []*worker, before, after layerCounters, ops int64) map[string]float64 {
	o := newOutcome()
	setLayerMetrics(o, before, after, ops)
	logs := make([]*spanLog, len(ws))
	for i, w := range ws {
		logs[i] = w.spans
	}
	setSpanMetrics(o, logs)
	grows := float64(after.grows - before.grows)
	o.metrics["hashmap.grows"] = grows
	if grows > 0 {
		o.metrics["hashmap.migrated_per_grow"] = float64(after.migrated-before.migrated) / grows
	}
	o.metrics["hashmap.migrate_steps"] = float64(after.steps - before.steps)
	o.metrics["hashmap.move_during_grow_p99_us"] = float64(quantile(durations(logs, "core.move"), 0.99)) / 1e3
	return o.metrics
}

// growStreams deals the keys 1..growKeys to the workers (key k to
// worker k mod libWorkers), shuffled, one Move each.
//
// TransferKeys is left out: against a growing destination it hangs on a
// known library defect (perfbench/README.md, "Known defect"), and a hung op
// is a failed op. lib-move times TransferKeys into pre-grown maps.
func growStreams(seed, round uint64) [][]uint64 {
	streams := make([][]uint64, libWorkers)
	for w := range streams {
		r := rand.New(rand.NewPCG(seed, round<<8|uint64(w)))
		for k := uint64(1 + w); k <= growKeys; k += libWorkers {
			streams[w] = append(streams[w], kindMapMove<<56|k)
		}
		r.Shuffle(len(streams[w]), func(i, j int) {
			streams[w][i], streams[w][j] = streams[w][j], streams[w][i]
		})
	}
	return streams
}

func newLibGrow(rt *repro.Runtime, seed uint64) *libGrow {
	th := rt.RegisterThread()
	l := &libGrow{seed: seed, th: th, src: repro.NewHashMap(th, growSrcBkts), dst: repro.NewHashMap(th, growDstBkts)}
	for k := uint64(1); k <= growKeys; k++ {
		l.src.Insert(th, k, value(seed, k))
	}
	return l
}

// step moves one key, then takes one rebalance step on the
// destination: inserts inside a move never start a grow.
func (l *libGrow) step(w *worker, op, id uint64, sp *spanLog) bool {
	k := op & (1<<24 - 1)
	t0 := sp.begin()
	_, ok := repro.Move(w.th, l.src, l.dst, k, k)
	sp.end("core.move", id, t0)
	t0 = sp.begin()
	l.dst.RebalanceStep(w.th)
	sp.end("hashmap.rebalance", id, t0)
	return ok
}

func (l *libGrow) layer() layerCounters { return mapLayer(layerCounters{}, l.dst) }

// check: the source ended empty and the destination holds every key
// with its value.
func (l *libGrow) check(o *outcome) {
	th := l.th
	left := len(l.src.Keys(th))
	checkf(o, left == 0, "lib-grow: source map still holds %d keys", left)
	bad := 0
	for k := uint64(1); k <= growKeys; k++ {
		if v, ok := l.dst.Contains(th, k); !ok || v != value(l.seed, k) {
			bad++
		}
	}
	checkf(o, bad == 0, "lib-grow: %d of %d keys missing from the destination or changed value", bad, growKeys)
	n := len(l.dst.Keys(th))
	checkf(o, n == growKeys, "lib-grow: destination holds %d keys, want %d", n, growKeys)
	o.checked++
}
