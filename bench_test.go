// Benchmarks regenerating every figure of the paper's evaluation plus
// the ablations from DESIGN.md §4. Each figure benchmark emits one
// sub-benchmark per (mix, implementation, thread count) cell and reports
// ms/trial (the figures' y-axis: total time for the trial's operations,
// local work subtracted) alongside Go's ns/op.
//
//	go test -bench 'Fig2'        # Figure 2 (queue/stack)
//	go test -bench 'Fig3'        # Figure 3 (two queues)
//	go test -bench 'Fig4'        # Figure 4 (two stacks)
//	go test -bench 'Backoff'     # §6/§7 backoff variants
//	go test -bench 'A1_Overhead' # scas/read overhead on plain ops
//	go test -bench 'A2_StackABA' # §7 ABA-counter trade-off
//	go test -bench 'A3_DCAS'     # DCAS vs two plain CASes
//	go test -bench 'MoveN'       # §8 n-object extension
//	go test -bench 'HashMove'    # §1.1 hash-map scenario
//	go test -bench 'MapChurn'    # sharded-map churn + MoveN rebalance
//	go test -bench 'Elim'        # elimination-backoff layer off vs on
//	go test -bench 'Parallel'    # hot-path bookkeeping under RunParallel
//
// The paper's full parameters are 5M ops × 50 trials × 1–16 threads; the
// benchmarks default to a scaled-down cell (100k ops) so a full sweep
// stays tractable — cmd/composebench runs the full configuration.
package repro_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/elim"
	"repro/internal/harness"
	"repro/internal/hashmap"
	"repro/internal/hazard"
	"repro/internal/kcas"
	"repro/internal/msqueue"
	"repro/internal/plainqueue"
	"repro/internal/plainstack"
	"repro/internal/tstack"
	"repro/internal/word"
	"repro/internal/xrand"
)

const benchOps = 100_000

var benchThreads = []int{1, 2, 4, 8, 16}

// benchFigure runs one paper figure: every panel (operation mix), both
// implementations, across thread counts.
func benchFigure(b *testing.B, pair harness.Pair, backoff bool) {
	for _, mix := range []harness.Mix{harness.MoveOnly, harness.InsertRemoveOnly, harness.Mixed} {
		for _, impl := range []harness.Impl{harness.LockFree, harness.Blocking} {
			for _, threads := range benchThreads {
				name := fmt.Sprintf("mix=%s/impl=%s/threads=%d", sanitize(mix.String()), impl, threads)
				b.Run(name, func(b *testing.B) {
					o := harness.Options{
						Impl: impl, Pair: pair, Mix: mix,
						Contention: harness.High,
						Threads:    threads,
						TotalOps:   benchOps,
						Trials:     1,
						Backoff:    backoff,
						Prefill:    512,
						Pin:        true,
					}
					var totalNS float64
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						r := harness.Run(o)
						totalNS += r.Summary.Mean
					}
					b.StopTimer()
					b.ReportMetric(totalNS/float64(b.N)/1e6, "ms/trial")
					b.ReportMetric(float64(benchOps)*float64(b.N)*1e9/totalNS, "ops/s")
				})
			}
		}
	}
}

func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '/' {
			out = append(out, '+')
		} else {
			out = append(out, s[i])
		}
	}
	return string(out)
}

// BenchmarkFig2 regenerates Figure 2: queue/stack composition, no
// backoff.
func BenchmarkFig2_QueueStack(b *testing.B) { benchFigure(b, harness.QueueStack, false) }

// BenchmarkFig3 regenerates Figure 3: two queues, no backoff.
func BenchmarkFig3_Queue(b *testing.B) { benchFigure(b, harness.QueueQueue, false) }

// BenchmarkFig4 regenerates Figure 4: two stacks, no backoff.
func BenchmarkFig4_Stack(b *testing.B) { benchFigure(b, harness.StackStack, false) }

// BenchmarkBackoff reproduces the §6/§7 backoff discussion (queue/stack
// pairing with exponential backoff; blocking improves under high
// contention, lock-free stays competitive).
func BenchmarkBackoff_QueueStack(b *testing.B) { benchFigure(b, harness.QueueStack, true) }

// --- A1: overhead of scas/read on the original operations ----------------

func BenchmarkA1_Overhead_Queue_MoveReady(b *testing.B) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2, ArenaCapacity: 1 << 16})
	th := rt.RegisterThread()
	q := msqueue.New(th)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Enqueue(th, uint64(i))
		q.Dequeue(th)
	}
}

func BenchmarkA1_Overhead_Queue_Plain(b *testing.B) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2, ArenaCapacity: 1 << 16})
	th := rt.RegisterThread()
	q := plainqueue.New(th)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Enqueue(th, uint64(i))
		q.Dequeue(th)
	}
}

func BenchmarkA1_Overhead_Stack_MoveReady(b *testing.B) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2, ArenaCapacity: 1 << 16})
	th := rt.RegisterThread()
	s := tstack.New(th)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Push(th, uint64(i))
		s.Pop(th)
	}
}

func BenchmarkA1_Overhead_Stack_Plain(b *testing.B) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2, ArenaCapacity: 1 << 16})
	th := rt.RegisterThread()
	s := plainstack.New(th)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Push(th, uint64(i))
		s.Pop(th)
	}
}

// Contended A1: multiple threads doing plain operations on the
// move-ready vs plain queue.
func benchContendedQueuePair(b *testing.B, moveReady bool, threads int) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: threads + 1, ArenaCapacity: 1 << 18})
	setup := rt.RegisterThread()
	var enq func(*core.Thread, uint64)
	var deq func(*core.Thread) (uint64, bool)
	if moveReady {
		q := msqueue.New(setup)
		enq = func(t *core.Thread, v uint64) { q.Enqueue(t, v) }
		deq = func(t *core.Thread) (uint64, bool) { return q.Dequeue(t) }
	} else {
		q := plainqueue.New(setup)
		enq = q.Enqueue
		deq = q.Dequeue
	}
	perThread := b.N/threads + 1
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < threads; w++ {
		th := rt.RegisterThread()
		wg.Add(1)
		go func(th *core.Thread) {
			defer wg.Done()
			for i := 0; i < perThread; i++ {
				enq(th, uint64(i))
				deq(th)
			}
		}(th)
	}
	wg.Wait()
}

func BenchmarkA1_Contended_Queue_MoveReady_4T(b *testing.B) { benchContendedQueuePair(b, true, 4) }
func BenchmarkA1_Contended_Queue_Plain_4T(b *testing.B)     { benchContendedQueuePair(b, false, 4) }

// --- A2: §7 stack ABA counter --------------------------------------------

// benchStackMoves: threads move a small token population between two
// stacks — the §7 worst case for false helping.
func benchStackMoves(b *testing.B, versioned bool, threads int) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: threads + 1, ArenaCapacity: 1 << 18})
	setup := rt.RegisterThread()
	mk := func() *tstack.Stack {
		if versioned {
			return tstack.NewVersioned(setup)
		}
		return tstack.New(setup)
	}
	s1, s2 := mk(), mk()
	for i := uint64(1); i <= 64; i++ {
		s1.Push(setup, i)
	}
	perThread := b.N/threads + 1
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < threads; w++ {
		th := rt.RegisterThread()
		wg.Add(1)
		go func(th *core.Thread, w int) {
			defer wg.Done()
			for i := 0; i < perThread; i++ {
				if (i+w)&1 == 0 {
					th.Move(s1, s2, 0, 0)
				} else {
					th.Move(s2, s1, 0, 0)
				}
			}
		}(th, w)
	}
	wg.Wait()
	b.StopTimer()
	helps, strays, late := rt.KCASPool().Stats()
	b.ReportMetric(float64(helps)/float64(b.N), "helps/op")
	b.ReportMetric(float64(strays)/float64(b.N), "strays/op")
	_ = late
}

func BenchmarkA2_StackABA_Move_Plain_4T(b *testing.B)     { benchStackMoves(b, false, 4) }
func BenchmarkA2_StackABA_Move_Versioned_4T(b *testing.B) { benchStackMoves(b, true, 4) }

// The other side of the §7 trade-off: versioning slows the normal
// operations slightly.
func benchStackPlainOps(b *testing.B, versioned bool) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2, ArenaCapacity: 1 << 16})
	th := rt.RegisterThread()
	var s *tstack.Stack
	if versioned {
		s = tstack.NewVersioned(th)
	} else {
		s = tstack.New(th)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Push(th, uint64(i))
		s.Pop(th)
	}
}

func BenchmarkA2_StackABA_PlainOps_Plain(b *testing.B)     { benchStackPlainOps(b, false) }
func BenchmarkA2_StackABA_PlainOps_Versioned(b *testing.B) { benchStackPlainOps(b, true) }

// --- A3: DCAS cost ---------------------------------------------------------

// benchSlots is the raw-engine slot assignment for the A3 benchmarks
// (mirrors core's layout: 3 descriptor slots, pair mirrors at 6/7,
// k-word mirrors from 8).
var benchSlots = kcas.Slots{PairHPD: 0, KHPD: 1, RDCSSHPD: 2, PairMirror1: 6, PairMirror2: 7, KMirrorBase: 8}

func BenchmarkA3_DCAS_Uncontended(b *testing.B) {
	nodeDom := hazard.New(2, 24)
	descDom := hazard.New(2, 3)
	pool := kcas.NewPool(1<<14, descDom)
	ctx := kcas.NewCtx(pool, nodeDom, 0, benchSlots)
	var w1, w2 word.Word
	v1, v2 := word.MakeNode(100, 0), word.MakeNode(101, 0)
	w1.Store(v1)
	w2.Store(v2)
	n1, n2 := word.MakeNode(102, 0), word.MakeNode(103, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, ref := ctx.AllocPair()
		e1, e2 := &d.Entries[0], &d.Entries[1]
		e1.Ptr, e1.Old, e1.New = &w1, v1, n1
		e2.Ptr, e2.Old, e2.New = &w2, v2, n2
		if ctx.ExecutePair(d, ref) != kcas.Success {
			b.Fatal("uncontended DCAS failed")
		}
		ctx.Retire(d, ref)
		v1, n1 = n1, v1
		v2, n2 = n2, v2
	}
}

func BenchmarkA3_TwoPlainCAS(b *testing.B) {
	var w1, w2 word.Word
	v1, v2 := word.MakeNode(100, 0), word.MakeNode(101, 0)
	w1.Store(v1)
	w2.Store(v2)
	n1, n2 := word.MakeNode(102, 0), word.MakeNode(103, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !w1.CAS(v1, n1) || !w2.CAS(v2, n2) {
			b.Fatal("CAS failed")
		}
		v1, n1 = n1, v1
		v2, n2 = n2, v2
	}
}

func BenchmarkA3_DCAS_Contended_4T(b *testing.B) {
	const threads = 4
	nodeDom := hazard.New(threads, 24)
	descDom := hazard.New(threads, 3)
	pool := kcas.NewPool(1<<16, descDom)
	var w1, w2 word.Word
	w1.Store(word.MakeNode(100, 0))
	w2.Store(word.MakeNode(101, 0))
	perThread := b.N/threads + 1
	var wg sync.WaitGroup
	b.ResetTimer()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			ctx := kcas.NewCtx(pool, nodeDom, t, benchSlots)
			for i := 0; i < perThread; i++ {
				o1 := ctx.Read(&w1)
				o2 := ctx.Read(&w2)
				d, ref := ctx.AllocPair()
				e1, e2 := &d.Entries[0], &d.Entries[1]
				e1.Ptr, e1.Old, e1.New = &w1, o1, word.MakeNode(200+uint64(t)<<8+uint64(i&0xff), 0)
				e2.Ptr, e2.Old, e2.New = &w2, o2, word.MakeNode(300+uint64(t)<<8+uint64(i&0xff), 0)
				if ctx.ExecutePair(d, ref) == kcas.FirstFailed {
					ctx.FreeDirect(d, ref)
				} else {
					ctx.Retire(d, ref)
				}
			}
			ctx.Flush()
		}(t)
	}
	wg.Wait()
}

// --- Parallel bookkeeping: per-thread state vs shared lines -----------------

// BenchmarkAllocRetireParallel times one node allocation plus its
// retirement on every goroutine at once. The memory manager's per-node
// counters live in each thread's cache, so the threads share no written
// line here except on the rare spill to the global stack.
func BenchmarkAllocRetireParallel(b *testing.B) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: runtime.GOMAXPROCS(0) + 1, ArenaCapacity: 1 << 20})
	b.RunParallel(func(pb *testing.PB) {
		th := rt.RegisterThread()
		for pb.Next() {
			th.RetireNode(th.AllocNode())
		}
		th.FlushMemory()
	})
}

// BenchmarkMapInsertRemoveSameShardParallel: every goroutine inserts
// and removes its own keys in one single-shard map, so all of them
// write the shard's element counter and the table's insert
// announcement counter, while each operation reads the shard's table
// pointer and the table's bucket array — the fields the hash map keeps
// on separate cache lines. The buckets are plentiful and the load
// stays far below the grow threshold, so no grow runs.
func BenchmarkMapInsertRemoveSameShardParallel(b *testing.B) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: runtime.GOMAXPROCS(0) + 2, ArenaCapacity: 1 << 20})
	m := hashmap.NewSharded(rt.RegisterThread(), 1, 1024, 0)
	var ids atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		th := rt.RegisterThread()
		base := ids.Add(1) << 32
		for i := uint64(0); pb.Next(); i++ {
			k := base | i&1023
			if !m.Insert(th, k, i) {
				b.Error("insert of an absent key failed")
				return
			}
			if _, ok := m.Remove(th, k); !ok {
				b.Error("remove of a present key failed")
				return
			}
		}
		th.FlushMemory()
	})
}

// --- E-MOVEN: §8 extension --------------------------------------------------

func benchMoveN(b *testing.B, targets int) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2, ArenaCapacity: 1 << 20})
	th := rt.RegisterThread()
	src := msqueue.New(th)
	dsts := make([]core.Inserter, targets)
	keys := make([]uint64, targets)
	sinks := make([]*tstack.Stack, targets)
	for i := range dsts {
		sinks[i] = tstack.New(th)
		dsts[i] = sinks[i]
	}
	src.Enqueue(th, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := th.MoveN(src, dsts, 0, keys); !ok {
			b.Fatal("MoveN failed")
		}
		// Recycle: drain one stack back into the source.
		v, _ := sinks[0].Pop(th)
		src.Enqueue(th, v)
		for j := 1; j < targets; j++ {
			sinks[j].Pop(th)
		}
	}
}

func BenchmarkMoveN_1Target(b *testing.B)  { benchMoveN(b, 1) }
func BenchmarkMoveN_2Targets(b *testing.B) { benchMoveN(b, 2) }
func BenchmarkMoveN_4Targets(b *testing.B) { benchMoveN(b, 4) }
func BenchmarkMoveN_7Targets(b *testing.B) { benchMoveN(b, 7) }

// Move (DCAS-based) vs MoveN with one target (MCAS-based): the cost of
// generality.
func BenchmarkMoveN_vs_Move_DCAS(b *testing.B) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2, ArenaCapacity: 1 << 18})
	th := rt.RegisterThread()
	src := msqueue.New(th)
	dst := tstack.New(th)
	src.Enqueue(th, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := th.Move(src, dst, 0, 0)
		w, _ := th.Move(dst, src, 0, 0)
		_, _ = v, w
	}
}

// --- E-BATCH: batched move pipeline ------------------------------------------

// benchMoveBatch measures B moves issued through one MoveBuffer flush
// against B independent Move calls over the same queue/stack pair: the
// fixed per-move costs (descriptor churn, hazard publication, retire
// traffic) are what the flush amortizes. The two mechanisms run
// interleaved within each iteration — a paired design, so host noise
// cancels out of the comparison — and each reports its own ns/move;
// "speedup" is unbatched/batched. Go's ns/op covers both halves.
//
// Memory: Go's per-benchmark allocation accounting cannot be split by
// half, so the alloc comparison runs as its own pass — AllocsPerCycle
// below reports the delta: batched cycles allocate strictly less (the
// retire/scan pipelines grow in the unbatched path, the flush path
// recycles in place).
// batchBenchWorld is one mechanism's fully isolated state: its own
// runtime, thread, descriptor contexts and containers, so neither
// mechanism's housekeeping (retire scans, pool compaction) can
// subsidize the other.
type batchBenchWorld struct {
	th   *core.Thread
	q    *repro.Queue
	s    *repro.Stack
	buf  *repro.MoveBatch
	half func(src core.Remover, dst core.Inserter)
}

func newBatchBenchWorld(b *testing.B, batchSize int, batched bool) *batchBenchWorld {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2, ArenaCapacity: 1 << 18})
	w := &batchBenchWorld{th: rt.RegisterThread()}
	w.q = repro.NewQueue(w.th)
	w.s = repro.NewStack(w.th)
	for i := uint64(0); i < uint64(batchSize); i++ {
		w.q.Enqueue(w.th, i)
	}
	if batched {
		w.buf = repro.NewMoveBatchSize(w.th, batchSize)
		w.half = func(src core.Remover, dst core.Inserter) {
			for i := 0; i < batchSize; i++ {
				w.buf.Add(src, dst, 0, 0)
			}
			for _, r := range w.buf.Flush() {
				if !r.OK {
					b.Fatal("batched move failed")
				}
			}
		}
	} else {
		w.half = func(src core.Remover, dst core.Inserter) {
			for i := 0; i < batchSize; i++ {
				if _, ok := w.th.Move(src, dst, 0, 0); !ok {
					b.Fatal("move failed")
				}
			}
		}
	}
	return w
}

func benchMoveBatch(b *testing.B, batchSize int) {
	bw := newBatchBenchWorld(b, batchSize, true)
	pw := newBatchBenchWorld(b, batchSize, false)
	var batchedNS, plainNS int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		bw.half(bw.q, bw.s)
		bw.half(bw.s, bw.q)
		t1 := time.Now()
		pw.half(pw.q, pw.s)
		pw.half(pw.s, pw.q)
		batchedNS += t1.Sub(t0).Nanoseconds()
		plainNS += time.Since(t1).Nanoseconds()
	}
	b.StopTimer()
	moves := float64(b.N * 2 * batchSize)
	b.ReportMetric(float64(batchedNS)/moves, "ns/move-batched")
	b.ReportMetric(float64(plainNS)/moves, "ns/move-unbatched")
	if batchedNS > 0 {
		b.ReportMetric(float64(plainNS)/float64(batchedNS), "speedup")
	}
}

func BenchmarkMoveBatch_B4(b *testing.B)  { benchMoveBatch(b, 4) }
func BenchmarkMoveBatch_B16(b *testing.B) { benchMoveBatch(b, 16) }
func BenchmarkMoveBatch_B64(b *testing.B) { benchMoveBatch(b, 64) }

// BenchmarkMoveBatch_Allocs isolates the allocation half of the
// comparison with Go's native accounting, one mechanism per run: the
// flush path recycles descriptors and nodes in place, so its pool and
// retire structures stop growing almost immediately, while the
// unbatched pipelines keep widening theirs — visible as higher B/op
// and allocs/op over the same move count.
func benchMoveBatchAllocs(b *testing.B, batchSize int, batched bool) {
	w := newBatchBenchWorld(b, batchSize, batched)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.half(w.q, w.s)
		w.half(w.s, w.q)
	}
}

func BenchmarkMoveBatch_Allocs_B4(b *testing.B)  { benchMoveBatchAllocs(b, 4, true) }
func BenchmarkMoveBatch_Allocs_B16(b *testing.B) { benchMoveBatchAllocs(b, 16, true) }
func BenchmarkMoveBatch_Allocs_B64(b *testing.B) { benchMoveBatchAllocs(b, 64, true) }

func BenchmarkMoveBatch_Allocs_Unbatched_B4(b *testing.B)  { benchMoveBatchAllocs(b, 4, false) }
func BenchmarkMoveBatch_Allocs_Unbatched_B16(b *testing.B) { benchMoveBatchAllocs(b, 16, false) }
func BenchmarkMoveBatch_Allocs_Unbatched_B64(b *testing.B) { benchMoveBatchAllocs(b, 64, false) }

// --- E-MAP: sharded-map churn + rebalance ------------------------------------

// benchMapChurn measures the keyed workload over two growing sharded
// maps: inserts/removes/lookups mixed with keyed cross-map moves and §8
// MoveN fan-outs, with shard grows (all entry relocations via MoveN)
// inside the measured interval. Reported alongside ops/s: grows/trial,
// how much rebalancing the interval absorbed.
func benchMapChurn(b *testing.B, threads int, rebalancer bool) {
	o := harness.MapOptions{
		Threads:    threads,
		TotalOps:   benchOps,
		Trials:     1,
		Keys:       8192,
		Rebalancer: rebalancer,
		Contention: harness.High,
		Pin:        true,
	}
	var totalNS, grows float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := harness.RunMapChurn(o)
		totalNS += r.Summary.Mean
		grows += r.Grows
	}
	b.StopTimer()
	b.ReportMetric(totalNS/float64(b.N)/1e6, "ms/trial")
	b.ReportMetric(float64(benchOps)*float64(b.N)*1e9/totalNS, "ops/s")
	b.ReportMetric(grows/float64(b.N), "grows/trial")
}

func BenchmarkMapChurn(b *testing.B) {
	for _, threads := range benchThreads {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			benchMapChurn(b, threads, false)
		})
	}
}

func BenchmarkMapChurn_Rebalancer(b *testing.B) {
	for _, threads := range benchThreads {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			benchMapChurn(b, threads, true)
		})
	}
}

// Plain keyed throughput on one sharded map, no moves: the map's own
// hot path with grows amortized in.
func BenchmarkMap_InsertRemove_1T(b *testing.B) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2, ArenaCapacity: 1 << 20})
	th := rt.RegisterThread()
	m := repro.NewHashMap(th, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i) & 8191
		m.Insert(th, k, k)
		m.Remove(th, k)
	}
}

// --- E-ELIM: elimination-backoff contention layer ----------------------------

// benchElimStack runs the §6 high-contention stack/stack insert/remove
// cell — the configuration Figure 4 shows collapsing — with the
// elimination layer off or on; the on-runs also report their hit rate.
func benchElimStack(b *testing.B, threads int, on bool) {
	o := harness.Options{
		Impl: harness.LockFree, Pair: harness.StackStack,
		Mix: harness.InsertRemoveOnly, Contention: harness.High,
		Threads: threads, TotalOps: benchOps, Trials: 1,
		Elimination: on, Prefill: 512, Pin: true,
	}
	var totalNS, hits float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := harness.Run(o)
		totalNS += r.Summary.Mean
		hits += r.ElimHits
	}
	b.StopTimer()
	b.ReportMetric(totalNS/float64(b.N)/1e6, "ms/trial")
	b.ReportMetric(float64(benchOps)*float64(b.N)*1e9/totalNS, "ops/s")
	if on {
		b.ReportMetric(hits/float64(b.N)/float64(benchOps), "hits/op")
	}
}

func BenchmarkElim_Stack(b *testing.B) {
	for _, on := range []bool{false, true} {
		for _, threads := range benchThreads {
			b.Run(fmt.Sprintf("elim=%v/threads=%d", on, threads), func(b *testing.B) {
				benchElimStack(b, threads, on)
			})
		}
	}
}

// BenchmarkElim_MapChurn: the keyed churn scenario with per-shard
// elimination arrays off vs on (mid-grow inserts park there).
func BenchmarkElim_MapChurn(b *testing.B) {
	for _, on := range []bool{false, true} {
		for _, threads := range benchThreads {
			b.Run(fmt.Sprintf("elim=%v/threads=%d", on, threads), func(b *testing.B) {
				o := harness.MapOptions{
					Threads: threads, TotalOps: benchOps, Trials: 1,
					Keys: 8192, Elimination: on,
					Contention: harness.High, Pin: true,
				}
				var totalNS float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r := harness.RunMapChurn(o)
					totalNS += r.Summary.Mean
				}
				b.StopTimer()
				b.ReportMetric(totalNS/float64(b.N)/1e6, "ms/trial")
				b.ReportMetric(float64(benchOps)*float64(b.N)*1e9/totalNS, "ops/s")
			})
		}
	}
}

// BenchmarkElim_ParkMiss is the layer's worst-case fixed cost: a park
// that times out with no taker (the price a lone contended push pays
// before falling back to its CAS loop).
func BenchmarkElim_ParkMiss(b *testing.B) {
	a := elim.NewArray(elim.Config{Slots: 1, Spins: 64}, 2)
	rng := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a.Park(rng.Uint64(), 0, uint64(i)) {
			b.Fatal("park hit with no taker")
		}
	}
}

// --- E-HASH: §1.1 scenario ---------------------------------------------------

func BenchmarkHashMove_MapToQueue(b *testing.B) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2, ArenaCapacity: 1 << 20})
	th := rt.RegisterThread()
	m := repro.NewHashMap(th, 64)
	q := repro.NewQueue(th)
	m.Insert(th, 1, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := th.Move(m, q, 1, 0); !ok {
			b.Fatal("map→queue move failed")
		}
		if _, ok := th.Move(q, m, 0, 1); !ok {
			b.Fatal("queue→map move failed")
		}
	}
}
