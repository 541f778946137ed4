package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// Worker phases of a closed-loop run.
const (
	phaseWarm int32 = iota
	phaseTimed
	phaseStop
)

const (
	// latencyEvery: one op in latencyEvery is timed for the op
	// latency percentiles (untraced runs too).
	latencyEvery = 64
	// maxLatencySamples caps each worker's latency buffer, allocated up
	// front so that filling it makes no garbage.
	maxLatencySamples = 1 << 20
	// stallLimit: a run in which no op completes for this long is
	// declared hung.
	stallLimit = 10 * time.Second
	// roundStallLimit is lib-grow's: a whole round takes well under a
	// second.
	roundStallLimit = 2 * time.Second
)

// stepFunc runs one pre-generated op on worker w. sp is non-nil when
// the op is sampled for spans; id identifies the op in them. It
// reports false when the op failed.
type stepFunc func(w *worker, op uint64, id uint64, sp *spanLog) bool

// worker is one load goroutine's state: its registered thread, its
// pre-generated op stream and what it measured.
type worker struct {
	idx    int
	th     *repro.Thread
	stream []uint64
	// finite workers stop at the end of their stream; the others wrap.
	finite bool

	done    atomic.Int64 // ops completed (failed ones included)
	failed  atomic.Int64
	exited  atomic.Bool
	lat     []int64      // sampled op latencies, ns, timed phase only
	nlat    atomic.Int64 // len(lat), for the interval cuts
	spans   *spanLog
	panicAt string // panic value and stack, if the worker panicked

	// Per-worker tallies the step functions keep (no sharing).
	calls, useful int64
	_             [64]byte
}

// loopResult is what one closed-loop run measured.
type loopResult struct {
	attempted int64   // ops started in any phase
	ops       int64   // ops completed in the timed window
	elapsed   float64 // timed window, seconds
	rate      float64 // median of the per-interval throughputs, ops/s
	rates     []float64
	cuts      [][]int64 // per interval, each worker's latency sample count
	failed    int64
	hung      string // watchdog verdict; "" when every worker exited
	panicked  []string
}

// loopSpec shapes one closed-loop run.
type loopSpec struct {
	// warm is run untimed first. timed is the timed window, split into
	// intervals for the median rate; a timed of 0 (with finite workers)
	// runs every stream to its end as the timed phase.
	warm, timed time.Duration
	intervals   int
	traced      bool
	// spanEvery: in a traced run, one op in spanEvery records spans
	// around each call it makes into a layer.
	spanEvery int
	stall     time.Duration // watchdog: longest time without progress
	out       string        // where stack dumps go
}

// runLoop drives workers through spec's phases.
func runLoop(ws []*worker, step stepFunc, spec loopSpec) loopResult {
	warm, timed, traced := spec.warm, spec.timed, spec.traced
	var phase atomic.Int32
	if warm == 0 {
		phase.Store(phaseTimed)
	}
	var wg sync.WaitGroup
	epoch := time.Now()
	for _, w := range ws {
		if traced {
			w.spans = newSpanLog(epoch)
		}
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			defer w.exited.Store(true)
			defer func() {
				if r := recover(); r != nil {
					// The op in flight never finished: count it failed.
					w.failed.Add(1)
					w.done.Add(1)
					w.panicAt = fmt.Sprintf("%v\n%s", r, debug.Stack())
				}
			}()
			mask := len(w.stream) - 1
			for i := 0; ; i++ {
				ph := phase.Load()
				if ph == phaseStop || (w.finite && i == len(w.stream)) {
					return
				}
				j := i
				if !w.finite {
					j &= mask
				}
				op := w.stream[j]
				id := uint64(w.idx)<<40 | uint64(i)
				var sp *spanLog
				if traced && ph == phaseTimed && i%spec.spanEvery == 0 {
					sp = w.spans
				}
				var ok bool
				if ph == phaseTimed && i%latencyEvery == 0 && len(w.lat) < maxLatencySamples {
					t0 := time.Now()
					ok = step(w, op, id, sp)
					t1 := time.Now()
					w.lat = append(w.lat, t1.Sub(t0).Nanoseconds())
					w.nlat.Store(int64(len(w.lat)))
					if sp != nil {
						sp.add("op", id, t0, t1)
					}
				} else {
					ok = step(w, op, id, sp)
				}
				if !ok {
					w.failed.Add(1)
				}
				w.done.Add(1)
			}
		}(w)
	}
	total := func() int64 {
		var n int64
		for _, w := range ws {
			n += w.done.Load()
		}
		return n
	}
	allExited := func() bool {
		for _, w := range ws {
			if !w.exited.Load() {
				return false
			}
		}
		return true
	}
	anyPanicked := func() bool {
		for _, w := range ws {
			if w.exited.Load() && w.panicAt != "" {
				return true
			}
		}
		return false
	}
	wd := newWatchdog(time.Now().Add(warm+timed+spec.stall+20*time.Second), spec.stall)
	var res loopResult
	// wait sleeps until t and reports whether it got there; it returns
	// early when the run hangs, a worker panics or every worker is done.
	wait := func(t time.Time) bool {
		for {
			now := time.Now()
			if !now.Before(t) {
				return true
			}
			if res.hung = wd.expired(now, total()); res.hung != "" || allExited() || anyPanicked() {
				return false
			}
			time.Sleep(min(20*time.Millisecond, t.Sub(now)))
		}
	}
	if warm > 0 && !wait(time.Now().Add(warm)) {
		phase.Store(phaseStop)
	}
	start, n0 := epoch, int64(0)
	if warm > 0 {
		start, n0 = time.Now(), total()
		phase.CompareAndSwap(phaseWarm, phaseTimed)
	}
	var rates []float64
	if timed > 0 {
		step := timed / time.Duration(spec.intervals)
		prevT, prevN := start, n0
		for k := 1; k <= spec.intervals && phase.Load() == phaseTimed; k++ {
			if !wait(start.Add(step * time.Duration(k))) {
				break
			}
			now, n := time.Now(), total()
			rates = append(rates, float64(n-prevN)/now.Sub(prevT).Seconds())
			prevT, prevN = now, n
			cut := make([]int64, len(ws))
			for i, w := range ws {
				cut[i] = w.nlat.Load()
			}
			res.cuts = append(res.cuts, cut)
		}
	} else {
		// Fixed work: the timed phase ends when every stream has run.
		for wait(time.Now().Add(50 * time.Millisecond)) {
		}
	}
	end, n1 := time.Now(), total()
	phase.Store(phaseStop)
	// A worker still inside an op gets the stall limit to leave it.
	for !allExited() && res.hung == "" {
		time.Sleep(20 * time.Millisecond)
		res.hung = wd.expired(time.Now(), total())
	}
	res.ops, res.elapsed = n1-n0, end.Sub(start).Seconds()
	res.rates = rates
	if len(rates) > 0 {
		res.rate = median(rates)
	} else if res.elapsed > 0 {
		res.rate = float64(res.ops) / res.elapsed
	}
	for _, w := range ws {
		res.attempted += w.done.Load()
		res.failed += w.failed.Load()
		if !w.exited.Load() {
			// Stuck inside an op: it never finished.
			res.attempted++
			res.failed++
		} else if w.panicAt != "" {
			res.panicked = append(res.panicked, w.panicAt)
		}
	}
	if res.hung != "" {
		dumpStacks(spec.out, res.hung, stackDump())
	} else {
		wg.Wait()
	}
	return res
}

// dumpStacks prints a watchdog expiry and every goroutine's stack into
// the run's output, and keeps a copy in the output directory.
func dumpStacks(out, reason, stacks string) {
	fmt.Printf("watchdog: %s; goroutine stacks follow\n%s\nwatchdog: end of stacks\n", reason, stacks)
	if out != "" {
		// Best effort: the stacks are already on stdout.
		_ = os.WriteFile(filepath.Join(out, "stacks.txt"), []byte(stacks), 0o644)
	}
}

// report folds a loop run's failures, hang and panics into o. It
// reports whether the containers are quiescent, so checks may run.
func (r loopResult) report(o *outcome) bool {
	o.failed += r.failed
	// A panic is a failed op; whether it broke conservation is for the
	// checks to say.
	for _, p := range r.panicked {
		fmt.Printf("worker panic: %s\n", p)
	}
	if r.hung != "" {
		o.indeterminate = append(o.indeterminate,
			"conservation not checked: watchdog expired ("+r.hung+") with an op still running")
		return false
	}
	return true
}
