package main

import (
	"math/rand/v2"
	"runtime"
	"time"

	"repro"
)

// Sizes of the library workloads, recorded in every result's info line.
const (
	libWorkers = 2 // load goroutines: the host's nproc

	opsKeys       = 1 << 18 // lib-ops: map keys, a working set larger than cache
	opsBuckets    = 1 << 16 // lib-ops: map buckets, so the prefill never grows it
	opsTokens     = 1024    // lib-ops: elements in the queue and in the stack
	opsStreamLen  = 1 << 20 // ops pre-generated per worker (the stream wraps)
	moveSingles   = 2048    // lib-move: keys moved one at a time
	movePairs     = 1024    // lib-move: key pairs moved by TransferKeys
	moveBuckets   = 1024    // lib-move: buckets per map: 4096 keys never grow it
	moveTokens    = 512     // lib-move: elements shared by the queue and the stack
	moveDrainN    = 8       // lib-move: DrainN budget
	moveStreamLen = 1 << 20
	growKeys      = 1 << 17 // lib-grow: keys migrated per round
	growSrcBkts   = 1 << 15 // lib-grow: source buckets (full, never grows)
	growDstBkts   = 64      // lib-grow: destination starts at the map default shape
	setupReps     = 5       // set-ups per run; setup_s is their median
	rateIntervals = 10      // the timed window is split this many times
)

// Op kinds, in the top byte of a stream entry.
const (
	kindGet uint64 = iota
	kindRemoveInsert
	kindQueue
	kindStack
	kindMapMove
	kindTransfer
	kindQSMove
	kindDrain
)

func opKind(op uint64) uint64 { return op >> 56 }

// value gives key k its (seeded, non-zero, 32-bit) value, so value sums
// never wrap.
func value(seed, k uint64) uint64 {
	z := (seed ^ 0x5851f42d4c957f2d) + k*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z^(z>>31))&0xffffffff | 1
}

// pick draws an op kind from cumulative percentage weights.
func pick(r *rand.Rand, kinds []uint64, cum []int) uint64 {
	x := r.IntN(100)
	for i, c := range cum {
		if x < c {
			return kinds[i]
		}
	}
	return kinds[len(kinds)-1]
}

// runtimeConfig is the library's zero Config, plus the metrics
// registry in a traced run.
func runtimeConfig(traced bool) repro.Config {
	if traced {
		return repro.Config{Obs: repro.ObsConfig{Metrics: true}}
	}
	return repro.Config{}
}

// libState is a built library workload: its containers and how one op
// and the final check run on them.
type libState interface {
	step(w *worker, op, id uint64, sp *spanLog) bool
	check(o *outcome)
	// layer reads the container counters the per-layer metrics use.
	layer() layerCounters
}

// layerCounters is one reading of the counters a traced run reports.
type layerCounters struct {
	obs                         map[string]uint64
	mmAllocs, mmScans, mmSpills uint64
	arenaNodes                  uint64
	mapRetries, stackRetries    uint64
	grows, migrated, steps      uint64
	goRT                        goStats
}

func readCounters(rt *repro.Runtime, st libState) layerCounters {
	c := st.layer()
	if reg := rt.Obs().Metrics(); reg != nil {
		c.obs = reg.Snapshot().Counters
	}
	allocs, _, scans, spills, _ := rt.Manager().Stats()
	c.mmAllocs, c.mmScans, c.mmSpills = allocs, scans, spills
	c.arenaNodes = rt.Arena().Allocated()
	c.goRT = readGoStats()
	return c
}

// setLayerMetrics fills the counter-based per-layer metrics from the
// readings before and after a traced window of ops benchmark ops.
func setLayerMetrics(o *outcome, b, a layerCounters, ops int64) {
	if ops < 1 {
		ops = 1
	}
	per := func(x, y uint64) float64 { return float64(y-x) / float64(ops) }
	pub := a.obs["kcas_publish_total"] - b.obs["kcas_publish_total"]
	o.metrics["kcas.publish_per_op"] = float64(pub) / float64(ops)
	o.metrics["kcas.helps_per_op"] = per(b.obs["kcas_helps_total"], a.obs["kcas_helps_total"])
	if pub > 0 {
		o.metrics["kcas.abort_ratio"] = float64(a.obs["kcas_aborts_total"]-b.obs["kcas_aborts_total"]) / float64(pub)
	}
	o.metrics["kcas.descs_carved"] = float64(a.obs["kcas_descs_carved_total"])
	o.metrics["mm.allocs_per_op"] = per(b.mmAllocs, a.mmAllocs)
	o.metrics["mm.scans_per_op"] = per(b.mmScans, a.mmScans)
	o.metrics["mm.spills"] = float64(a.mmSpills - b.mmSpills)
	o.metrics["arena.nodes_allocated"] = float64(a.arenaNodes)
	o.metrics["hashmap.cas_retries_per_op"] = per(b.mapRetries, a.mapRetries)
	o.metrics["tstack.cas_retries_per_op"] = per(b.stackRetries, a.stackRetries)
	o.metrics["go.allocs_per_op"] = per(b.goRT.allocs, a.goRT.allocs)
	o.metrics["go.gc_cycles"] = float64(a.goRT.gcCycles - b.goRT.gcCycles)
	o.metrics["go.gc_pause_ms"] = (a.goRT.pauseSeconds - b.goRT.pauseSeconds) * 1e3
}

// setSpanMetrics fills the span-timed per-layer metrics.
func setSpanMetrics(o *outcome, logs []*spanLog) {
	p50 := func(name string) float64 { return float64(quantile(durations(logs, name), 0.50)) }
	o.metrics["hashmap.get_p50_ns"] = p50("hashmap.get")
	o.metrics["hashmap.put_p50_ns"] = p50("hashmap.put")
	o.metrics["hashmap.del_p50_ns"] = p50("hashmap.del")
	o.metrics["msqueue.op_p50_ns"] = p50("msqueue.op")
	o.metrics["tstack.op_p50_ns"] = p50("tstack.op")
	o.metrics["core.move_p50_ns"] = p50("core.move")
	o.metrics["core.move_p99_ns"] = float64(quantile(durations(logs, "core.move"), 0.99))
	o.metrics["core.transfer_p50_ns"] = p50("core.transfer")
	o.metrics["core.drain_p50_ns"] = p50("core.drain")
	dropped := 0
	for _, l := range logs {
		dropped += l.dropped
	}
	o.info["spans_dropped"] = dropped
}

// newWorkers registers one thread per stream.
func newWorkers(rt *repro.Runtime, streams [][]uint64, finite bool) []*worker {
	ws := make([]*worker, len(streams))
	for i, s := range streams {
		ws[i] = &worker{idx: i, th: rt.RegisterThread(), stream: s, finite: finite,
			lat: offHeap[int64](maxLatencySamples)[:0]}
	}
	return ws
}

func latencies(ws []*worker) []int64 {
	var all []int64
	for _, w := range ws {
		all = append(all, w.lat...)
	}
	return all
}

// usefulRatio is core.move_success_ratio: composed calls that moved
// something over composed calls made.
func usefulRatio(ws []*worker) float64 {
	var calls, useful int64
	for _, w := range ws {
		calls += w.calls
		useful += w.useful
	}
	if calls == 0 {
		return 0
	}
	return float64(useful) / float64(calls)
}

// runClosed runs lib-ops and lib-move closed-loop: set up
// setupReps times (setup_s is the median), warm up, then run the timed
// window. A traced run times an untraced window first (for
// trace.overhead_ratio), then a traced one on a fresh set-up with the
// metrics registry on.
func runClosed(cfg config, o *outcome, streams [][]uint64, build func(rt *repro.Runtime) libState) error {
	setupOnce := func(traced bool) (*repro.Runtime, libState, float64) {
		runtime.GC()
		t0 := time.Now()
		rt := repro.NewRuntime(runtimeConfig(traced))
		st := build(rt)
		return rt, st, time.Since(t0).Seconds()
	}
	var rt *repro.Runtime
	var st libState
	var setups []float64
	for i := 0; i < setupReps; i++ {
		rt, st = nil, nil // let the previous set-up be collected
		var s float64
		rt, st, s = setupOnce(false)
		setups = append(setups, s)
	}
	o.info["peak_rss_reset"] = resetPeakRSS()
	window := time.Duration(cfg.seconds * float64(time.Second))
	warm := min(time.Second, window/10)
	if cfg.trace {
		window /= 2
	}
	spec := loopSpec{warm: warm, timed: window, intervals: rateIntervals, spanEvery: 128, stall: stallLimit, out: cfg.out}
	ws := newWorkers(rt, streams, false)
	res := runLoop(ws, st.step, spec)
	o.attempted += res.attempted
	if !res.report(o) {
		return nil
	}
	if !cfg.trace {
		lat := make([][]int64, len(ws))
		n := 0
		for i, w := range ws {
			lat[i] = w.lat
			n += len(w.lat)
		}
		o.metrics["setup_s"] = median(setups)
		o.metrics["ops_per_s"] = res.rate
		o.info["interval_rates"] = res.rates
		o.metrics["latency_p50_us"] = intervalQuantile(lat, res.cuts, 0.50) / 1e3
		o.metrics["latency_p99_us"] = intervalQuantile(lat, res.cuts, 0.99) / 1e3
		o.info["latency_samples"] = n
		o.info["setup_runs_s"] = setups
		mem, err := peakRSSMB("self")
		if err != nil {
			return err
		}
		o.metrics["mem_mb"] = mem
		st.check(o)
		return nil
	}
	st.check(o)
	untraced := res.rate
	rt, st, _ = setupOnce(true)
	ws = newWorkers(rt, streams, false)
	before := readCounters(rt, st)
	spec.traced = true
	res = runLoop(ws, st.step, spec)
	after := readCounters(rt, st)
	o.attempted += res.attempted
	if !res.report(o) {
		return nil
	}
	setLayerMetrics(o, before, after, res.ops)
	logs := make([]*spanLog, len(ws))
	for i, w := range ws {
		logs[i] = w.spans
	}
	setSpanMetrics(o, logs)
	o.metrics["core.move_success_ratio"] = usefulRatio(ws)
	o.metrics["hashmap.grows"] = float64(after.grows - before.grows)
	if res.rate > 0 {
		o.metrics["trace.overhead_ratio"] = untraced / res.rate
	}
	st.check(o)
	return writeSpans(cfg.out, cfg.workload, logs)
}

// ---- lib-ops: original operations only -------------------------------

type libOps struct {
	seed uint64
	th   *repro.Thread // the set-up thread, reused by the check
	m    *repro.HashMap
	q    *repro.Queue
	s    *repro.Stack
}

func runLibOps(cfg config, o *outcome) error {
	o.info["sizes"] = map[string]any{
		"workers": libWorkers, "map_keys": opsKeys, "map_buckets": opsBuckets,
		"queue_elems": opsTokens, "stack_elems": opsTokens, "stream_per_worker": opsStreamLen,
		"mix":  "contains=60,remove+insert=20,dequeue+enqueue=10,pop+push=10",
		"loop": "closed",
	}
	kinds := []uint64{kindGet, kindRemoveInsert, kindQueue, kindStack}
	cum := []int{60, 80, 90, 100}
	streams := make([][]uint64, libWorkers)
	for w := range streams {
		r := rand.New(rand.NewPCG(cfg.seed, uint64(w)))
		s := offHeap[uint64](opsStreamLen)
		for i := range s {
			s[i] = pick(r, kinds, cum)<<56 | (1 + r.Uint64N(opsKeys))
		}
		streams[w] = s
	}
	err := runClosed(cfg, o, streams, func(rt *repro.Runtime) libState {
		th := rt.RegisterThread()
		l := &libOps{seed: cfg.seed, th: th, m: repro.NewHashMap(th, opsBuckets), q: repro.NewQueue(th), s: repro.NewStack(th)}
		for k := uint64(1); k <= opsKeys; k++ {
			l.m.Insert(th, k, value(cfg.seed, k))
		}
		for i := uint64(0); i < opsTokens; i++ {
			l.q.Enqueue(th, l.token(i))
			l.s.Push(th, l.token(opsTokens+i))
		}
		return l
	})
	if cfg.trace {
		// No original op publishes a descriptor.
		o.info["prediction kcas.publish_per_op=0 held"] = o.metrics["kcas.publish_per_op"] == 0
	}
	return err
}

// token is the value of the i-th queue or stack element.
func (l *libOps) token(i uint64) uint64 { return value(l.seed, opsKeys+1+i) }

func (l *libOps) step(w *worker, op, id uint64, sp *spanLog) bool {
	th := w.th
	k := op & (1<<56 - 1)
	switch opKind(op) {
	case kindGet:
		t0 := sp.begin()
		l.m.Contains(th, k)
		sp.end("hashmap.get", id, t0)
		return true
	case kindRemoveInsert:
		t0 := sp.begin()
		v, ok := l.m.Remove(th, k)
		sp.end("hashmap.del", id, t0)
		if !ok {
			return true // the other worker holds the key for a moment
		}
		t0 = sp.begin()
		ok = l.m.Insert(th, k, v)
		sp.end("hashmap.put", id, t0)
		return ok
	case kindQueue:
		t0 := sp.begin()
		v, ok := l.q.Dequeue(th)
		sp.end("msqueue.op", id, t0)
		if !ok {
			return false
		}
		t0 = sp.begin()
		ok = l.q.Enqueue(th, v)
		sp.end("msqueue.op", id, t0)
		return ok
	default:
		t0 := sp.begin()
		v, ok := l.s.Pop(th)
		sp.end("tstack.op", id, t0)
		if !ok {
			return false
		}
		t0 = sp.begin()
		ok = l.s.Push(th, v)
		sp.end("tstack.op", id, t0)
		return ok
	}
}

func (l *libOps) layer() layerCounters {
	return mapLayer(layerCounters{stackRetries: l.s.Retries()}, l.m)
}

// mapLayer adds m's retry and grow counters to c.
func mapLayer(c layerCounters, m *repro.HashMap) layerCounters {
	for _, r := range m.ContentionStats() {
		c.mapRetries += r
	}
	g, mig, st := m.Stats()
	c.grows, c.migrated, c.steps = c.grows+g, c.migrated+mig, c.steps+st
	return c
}

// check: every key still maps to its value, and the queue and stack
// still hold exactly the prefilled elements.
func (l *libOps) check(o *outcome) {
	th := l.th
	bad := 0
	for k := uint64(1); k <= opsKeys; k++ {
		if v, ok := l.m.Contains(th, k); !ok || v != value(l.seed, k) {
			bad++
		}
	}
	checkf(o, bad == 0, "lib-ops: %d of %d keys lost or changed their value", bad, opsKeys)
	checkf(o, l.m.Len(th) == opsKeys, "lib-ops: map holds %d entries, want %d", l.m.Len(th), opsKeys)
	var want uint64
	for i := uint64(0); i < 2*opsTokens; i++ {
		want += l.token(i)
	}
	n, sum := drainQueue(th, l.q)
	n2, sum2 := drainStack(th, l.s)
	checkf(o, n+n2 == 2*opsTokens && sum+sum2 == want,
		"lib-ops: queue+stack hold %d elements (sum %d), want %d (sum %d)", n+n2, sum+sum2, 2*opsTokens, want)
	o.checked++
}

// ---- lib-move: composed operations only ------------------------------

type libMove struct {
	seed    uint64
	th      *repro.Thread
	a, b    *repro.HashMap
	q       *repro.Queue
	s       *repro.Stack
	singles []uint64
	pairs   [][2]uint64
}

func runLibMove(cfg config, o *outcome) error {
	o.info["sizes"] = map[string]any{
		"workers": libWorkers, "single_keys": moveSingles, "key_pairs": movePairs,
		"buckets_per_map": moveBuckets, "queue_stack_elems": moveTokens, "drain_n": moveDrainN,
		"stream_per_worker": moveStreamLen,
		"mix":               "move_map=40,transfer_keys2=20,move_queue_stack=30,drain8=10",
		"loop":              "closed",
	}
	kinds := []uint64{kindMapMove, kindTransfer, kindQSMove, kindDrain}
	cum := []int{40, 60, 90, 100}
	streams := make([][]uint64, libWorkers)
	for w := range streams {
		r := rand.New(rand.NewPCG(cfg.seed, uint64(w)))
		s := offHeap[uint64](moveStreamLen)
		for i := range s {
			kind := pick(r, kinds, cum)
			var idx uint64
			switch kind {
			case kindMapMove:
				idx = r.Uint64N(moveSingles)
			case kindTransfer:
				idx = r.Uint64N(movePairs)
			}
			s[i] = kind<<56 | r.Uint64N(2)<<48 | idx
		}
		streams[w] = s
	}
	err := runClosed(cfg, o, streams, func(rt *repro.Runtime) libState {
		return newLibMove(rt, cfg.seed)
	})
	if cfg.trace {
		// Inserts inside moves never start a grow, and the maps are
		// sized so nothing else does.
		o.info["prediction hashmap.grows=0 held"] = o.metrics["hashmap.grows"] == 0
	}
	return err
}

// newLibMove builds two pre-grown maps holding the hot keyspace between
// them, and a queue and a stack sharing moveTokens elements. Keys
// 1..moveSingles move alone; the rest are paired for TransferKeys, each
// pair chain-independent in both maps (which have the same shape and
// never grow), so a transfer is never refused for sharing a chain.
func newLibMove(rt *repro.Runtime, seed uint64) *libMove {
	th := rt.RegisterThread()
	l := &libMove{
		seed: seed, th: th,
		a: repro.NewHashMap(th, moveBuckets), b: repro.NewHashMap(th, moveBuckets),
		q: repro.NewQueue(th), s: repro.NewStack(th),
	}
	r := rand.New(rand.NewPCG(seed, 0x6d6f7665))
	side := func() *repro.HashMap {
		if r.IntN(2) == 0 {
			return l.a
		}
		return l.b
	}
	for k := uint64(1); k <= moveSingles; k++ {
		l.singles = append(l.singles, k)
		side().Insert(th, k, value(seed, k))
	}
	var pending []uint64
	for k := uint64(moveSingles + 1); len(l.pairs) < movePairs; k++ {
		paired := false
		for i, p := range pending {
			if !l.a.SameChain(p, k) {
				l.pairs = append(l.pairs, [2]uint64{p, k})
				pending = append(pending[:i], pending[i+1:]...)
				paired = true
				break
			}
		}
		if !paired {
			pending = append(pending, k)
		}
	}
	for _, p := range l.pairs {
		m := side()
		m.Insert(th, p[0], value(seed, p[0]))
		m.Insert(th, p[1], value(seed, p[1]))
	}
	for i := uint64(0); i < moveTokens; i++ {
		if i%2 == 0 {
			l.q.Enqueue(th, l.token(i))
		} else {
			l.s.Push(th, l.token(i))
		}
	}
	return l
}

func (l *libMove) token(i uint64) uint64 { return value(l.seed, 1<<40+i) }

func (l *libMove) step(w *worker, op, id uint64, sp *spanLog) bool {
	th := w.th
	flip := (op>>48)&1 == 1
	idx := op & (1<<48 - 1)
	moved := false
	switch opKind(op) {
	case kindMapMove:
		k := l.singles[idx]
		src, dst := l.a, l.b
		if flip {
			src, dst = dst, src
		}
		for try := 0; try < 2 && !moved; try++ {
			t0 := sp.begin()
			_, moved = repro.Move(th, src, dst, k, k)
			sp.end("core.move", id, t0)
			w.calls++
			src, dst = dst, src
		}
	case kindTransfer:
		keys := l.pairs[idx][:]
		src, dst := l.a, l.b
		if flip {
			src, dst = dst, src
		}
		for try := 0; try < 2 && !moved; try++ {
			t0 := sp.begin()
			_, moved = repro.TransferKeys(th, src, dst, keys, keys)
			sp.end("core.transfer", id, t0)
			w.calls++
			src, dst = dst, src
		}
	case kindQSMove:
		var src, dst repro.MoveReady = l.q, l.s
		if flip {
			src, dst = dst, src
		}
		for try := 0; try < 2 && !moved; try++ {
			t0 := sp.begin()
			_, moved = repro.Move(th, src, dst, 0, 0)
			sp.end("core.move", id, t0)
			w.calls++
			src, dst = dst, src
		}
	default:
		var src, dst repro.MoveReady = l.q, l.s
		if flip {
			src, dst = dst, src
		}
		for try := 0; try < 2 && !moved; try++ {
			t0 := sp.begin()
			moved = len(repro.DrainN(th, src, dst, 0, 0, moveDrainN)) > 0
			sp.end("core.drain", id, t0)
			w.calls++
			src, dst = dst, src
		}
	}
	if moved {
		w.useful++
	}
	return true // a move that found nothing to move is an answer, not a failure
}

func (l *libMove) layer() layerCounters {
	return mapLayer(mapLayer(layerCounters{stackRetries: l.s.Retries()}, l.a), l.b)
}

// check: every hot key is in exactly one map with its value, and the
// queue and stack together hold the prefilled elements.
func (l *libMove) check(o *outcome) {
	th := l.th
	bad := 0
	for k := uint64(1); k <= moveSingles+2*movePairs; k++ {
		va, inA := l.a.Contains(th, k)
		vb, inB := l.b.Contains(th, k)
		if inA == inB || (inA && va != value(l.seed, k)) || (inB && vb != value(l.seed, k)) {
			bad++
		}
	}
	checkf(o, bad == 0, "lib-move: %d keys are in both maps, in neither, or changed value", bad)
	total := l.a.Len(th) + l.b.Len(th)
	checkf(o, total == moveSingles+2*movePairs, "lib-move: maps hold %d entries, want %d", total, moveSingles+2*movePairs)
	var want uint64
	for i := uint64(0); i < moveTokens; i++ {
		want += l.token(i)
	}
	n, sum := drainQueue(th, l.q)
	n2, sum2 := drainStack(th, l.s)
	checkf(o, n+n2 == moveTokens && sum+sum2 == want,
		"lib-move: queue+stack hold %d elements (sum %d), want %d (sum %d)", n+n2, sum+sum2, moveTokens, want)
	o.checked++
}

func drainQueue(th *repro.Thread, q *repro.Queue) (n int, sum uint64) {
	for {
		v, ok := q.Dequeue(th)
		if !ok {
			return
		}
		n++
		sum += v
	}
}

func drainStack(th *repro.Thread, s *repro.Stack) (n int, sum uint64) {
	for {
		v, ok := s.Pop(th)
		if !ok {
			return
		}
		n++
		sum += v
	}
}

func checkf(o *outcome, ok bool, format string, args ...any) {
	if !ok {
		o.violate(format, args...)
	}
}
