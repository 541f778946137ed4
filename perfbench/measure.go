package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// quantile returns the q-quantile (0..1) of xs by the nearest-rank
// rule, sorting xs in place; 0 for an empty slice.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// intervalQuantile is the median, over the timed window's intervals, of
// each interval's q-quantile: a slow stretch of the host shifts a few
// intervals, not the figure. samples[w] holds source w's samples in
// the order taken; cuts[k][w] counts source w's samples taken before
// the end of interval k.
func intervalQuantile(samples [][]int64, cuts [][]int64, q float64) float64 {
	var per []float64
	from := make([]int64, len(samples))
	for _, cut := range cuts {
		var in []int64
		for w, s := range samples {
			in = append(in, s[from[w]:cut[w]]...)
			from[w] = cut[w]
		}
		if len(in) > 0 {
			per = append(per, float64(quantile(in, q)))
		}
	}
	return median(per)
}

// median returns the median of xs (sorting a copy).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// span is one timed call into a layer, kept in memory during a traced
// run and written out when the run ends. Spans of one benchmark op
// share Op; Parent names the op's top-level span ("" for the op
// itself).
type span struct {
	Name    string `json:"name"`
	Op      uint64 `json:"op"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// maxSpansPerWorker caps a worker's in-memory span buffer; later spans
// are counted as dropped.
const maxSpansPerWorker = 1 << 18

// spanLog is one worker's span buffer. Only its worker appends.
type spanLog struct {
	epoch   time.Time
	spans   []span
	dropped int
}

func newSpanLog(epoch time.Time) *spanLog {
	return &spanLog{epoch: epoch, spans: make([]span, 0, 1<<12)}
}

// add records a span that ran from start to end. Every span but an
// op's own ("op") is a child of its op.
func (l *spanLog) add(name string, op uint64, start, end time.Time) {
	if len(l.spans) >= maxSpansPerWorker {
		l.dropped++
		return
	}
	parent := "op"
	if name == "op" {
		parent = ""
	}
	l.spans = append(l.spans, span{
		Name: name, Op: op, Parent: parent,
		StartNS: start.Sub(l.epoch).Nanoseconds(), EndNS: end.Sub(l.epoch).Nanoseconds(),
	})
}

// begin starts timing a call; on a nil log (op not sampled) it costs
// nothing.
func (l *spanLog) begin() time.Time {
	if l == nil {
		return time.Time{}
	}
	return time.Now()
}

// end records the call begun at t0 as a span named name.
func (l *spanLog) end(name string, op uint64, t0 time.Time) {
	if l != nil {
		l.add(name, op, t0, time.Now())
	}
}

// durations returns the durations (ns) of every span named name.
func durations(logs []*spanLog, name string) []int64 {
	var out []int64
	for _, l := range logs {
		for _, s := range l.spans {
			if s.Name == name {
				out = append(out, s.EndNS-s.StartNS)
			}
		}
	}
	return out
}

// writeSpans dumps every span as JSONL to dir/spans-<workload>.jsonl.
func writeSpans(dir, workload string, logs []*spanLog) error {
	if dir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, "spans-"+workload+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range logs {
		for _, s := range l.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// offHeap returns n zeroed words mapped outside the Go heap. The op
// streams and latency buffers of lib-ops and lib-move live there: in
// the heap they would be most of its live bytes and so set the GC's
// heap goal, and the library's garbage would then pile up to a goal its
// own data never set, with a resident part that differed by several MB
// from run to run. The mapping lasts as long as the process.
func offHeap[T ~int64 | ~uint64](n int) []T {
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("perfbench: map %d words: %v", n, err))
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

// peakRSSMB reads a process's peak resident set size (VmHWM) in MB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// resetPeakRSS restarts this process's VmHWM from its current RSS
// (Linux clear_refs), so set-up transients already freed do not count
// toward the peak of the run that follows. It reports whether it could.
func resetPeakRSS() bool {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// goStats is a reading of the Go runtime's allocation and GC counters.
type goStats struct {
	allocs, gcCycles uint64
	pauseSeconds     float64
}

var goStatNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

func readGoStats() goStats {
	samples := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	st := goStats{allocs: samples[0].Value.Uint64(), gcCycles: samples[1].Value.Uint64()}
	// The pause histogram has no exact sum; weight each bucket by its
	// lower bound (the first bucket's lower bound may be -Inf: use 0).
	h := samples[2].Value.Float64Histogram()
	for i, c := range h.Counts {
		if lo := h.Buckets[i]; c > 0 && lo > 0 {
			st.pauseSeconds += float64(c) * lo
		}
	}
	return st
}

// watchdog expires a run that stops making progress or outlives its
// deadline.
type watchdog struct {
	deadline time.Time
	stall    time.Duration
	last     int64
	lastAt   time.Time
}

func newWatchdog(deadline time.Time, stall time.Duration) *watchdog {
	return &watchdog{deadline: deadline, stall: stall, lastAt: time.Now()}
}

// expired is polled by one goroutine with the run's count of completed
// ops; it reports why the run must be abandoned, or "" while it is
// healthy.
func (w *watchdog) expired(now time.Time, p int64) string {
	if now.After(w.deadline) {
		return "run deadline passed"
	}
	if p != w.last {
		w.last, w.lastAt = p, now
		return ""
	}
	if now.Sub(w.lastAt) > w.stall {
		return fmt.Sprintf("no op completed for %v", w.stall)
	}
	return ""
}

// stackDump returns every goroutine's stack.
func stackDump() string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return string(buf[:n])
		}
		buf = make([]byte, 2*len(buf))
	}
}
