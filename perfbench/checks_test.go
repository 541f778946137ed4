package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/kvwire"
)

// The checkers must catch what they exist to catch: each planted
// violation below has to fail the run, and each unplanted control has
// to pass it.

func TestPlantedConservationLoss(t *testing.T) {
	const seed = 7
	t.Run("lib-move control", func(t *testing.T) {
		o := newOutcome()
		newLibMove(repro.NewRuntime(repro.Config{}), seed).check(o)
		if !o.correct() {
			t.Fatalf("untouched lib-move state failed its check: %v", o.violations)
		}
	})
	t.Run("lib-move map entry lost", func(t *testing.T) {
		l := newLibMove(repro.NewRuntime(repro.Config{}), seed)
		k := l.singles[3]
		if _, ok := l.a.Remove(l.th, k); !ok {
			l.b.Remove(l.th, k)
		}
		o := newOutcome()
		l.check(o)
		if o.correct() {
			t.Fatal("a key removed from both maps passed the conservation check")
		}
	})
	t.Run("lib-move element duplicated", func(t *testing.T) {
		l := newLibMove(repro.NewRuntime(repro.Config{}), seed)
		l.q.Enqueue(l.th, l.token(0))
		o := newOutcome()
		l.check(o)
		if o.correct() {
			t.Fatal("an extra queue element passed the conservation check")
		}
	})
	t.Run("lib-ops value changed", func(t *testing.T) {
		rt := repro.NewRuntime(repro.Config{})
		th := rt.RegisterThread()
		l := &libOps{seed: seed, th: th, m: repro.NewHashMap(th, opsBuckets), q: repro.NewQueue(th), s: repro.NewStack(th)}
		for k := uint64(1); k <= opsKeys; k++ {
			l.m.Insert(th, k, value(seed, k))
		}
		for i := uint64(0); i < opsTokens; i++ {
			l.q.Enqueue(th, l.token(i))
			l.s.Push(th, l.token(opsTokens+i))
		}
		l.m.Remove(th, 5)
		l.m.Insert(th, 5, 1)
		o := newOutcome()
		l.check(o)
		if o.correct() {
			t.Fatal("a changed value passed the conservation check")
		}
	})
	t.Run("lib-grow", func(t *testing.T) {
		l := newLibGrow(repro.NewRuntime(repro.Config{}), seed)
		for k := uint64(1); k <= growKeys; k++ {
			if k == 99 {
				l.src.Remove(l.th, k) // planted: one key never arrives
				continue
			}
			if _, ok := repro.Move(l.th, l.src, l.dst, k, k); !ok {
				t.Fatalf("Move of key %d refused", k)
			}
			l.dst.RebalanceStep(l.th) // grow as the workload does
		}
		o := newOutcome()
		l.check(o)
		if o.correct() {
			t.Fatal("a lost key passed the lib-grow check")
		}
		if len(o.violations) == 0 || !strings.Contains(o.violations[0], "1 of") {
			t.Fatalf("violations %q do not name the one lost key", o.violations)
		}
	})
}

// stubKV is a small in-memory stand-in for kvserver speaking the wire
// protocol. busy answers BUSY to every data request; leakDel answers a
// DEL as done without deleting (a planted audit mismatch).
type stubKV struct {
	busy, leakDel bool

	mu     sync.Mutex
	maps   [kvTenants]map[uint64]uint64
	queues [kvTenants][]uint64
}

func startStub(t *testing.T, s *stubKV) string {
	t.Helper()
	for i := range s.maps {
		s.maps[i] = map[uint64]uint64{}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				in := bufio.NewScanner(c)
				out := bufio.NewWriter(c)
				for in.Scan() {
					out.WriteString(s.answer(in.Text()) + "\n")
					if out.Flush() != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

func (s *stubKV) answer(line string) string {
	req, err := kvwire.ParseRequest(line, kvTenants)
	if err != nil {
		return "ERR " + err.Error()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if req.Op == kvwire.OpAudit {
		var n, sum, qn uint64
		for i := range s.maps {
			for _, v := range s.maps[i] {
				n++
				sum += v
			}
			qn += uint64(len(s.queues[i]))
		}
		return fmt.Sprintf("OK %d %d %d", n, sum, qn)
	}
	if req.Op >= kvwire.OpCount {
		return "ERR not served by the stub"
	}
	if s.busy {
		return "BUSY"
	}
	m, d := s.maps[req.Tenant], s.maps[req.DTenant]
	switch req.Op {
	case kvwire.OpGet:
		if v, ok := m[req.Keys[0]]; ok {
			return "OK " + strconv.FormatUint(v, 10)
		}
		return "NF"
	case kvwire.OpPut:
		if _, ok := m[req.Keys[0]]; ok {
			return "EXISTS"
		}
		m[req.Keys[0]] = req.Val
		return "OK"
	case kvwire.OpDel:
		v, ok := m[req.Keys[0]]
		if !ok {
			return "NF"
		}
		if !s.leakDel {
			delete(m, req.Keys[0])
		}
		return "OK " + strconv.FormatUint(v, 10)
	case kvwire.OpPush:
		s.queues[req.Tenant] = append(s.queues[req.Tenant], req.Val)
		return "OK"
	case kvwire.OpPop:
		q := s.queues[req.Tenant]
		if len(q) == 0 {
			return "NF"
		}
		s.queues[req.Tenant] = q[1:]
		return "OK " + strconv.FormatUint(q[0], 10)
	case kvwire.OpMove, kvwire.OpXfer:
		var vals []string
		for i, k := range req.Keys {
			if _, ok := m[k]; !ok {
				return "FAIL"
			}
			if _, ok := d[req.TKeys[i]]; ok {
				return "FAIL"
			}
		}
		for i, k := range req.Keys {
			vals = append(vals, strconv.FormatUint(m[k], 10))
			d[req.TKeys[i]] = m[k]
			delete(m, k)
		}
		return "OK " + strings.Join(vals, ",")
	case kvwire.OpDrain:
		var vals []string
		for len(vals) < req.N && len(s.queues[req.Tenant]) > 0 {
			v := s.queues[req.Tenant][0]
			s.queues[req.Tenant] = s.queues[req.Tenant][1:]
			s.queues[req.DTenant] = append(s.queues[req.DTenant], v)
			vals = append(vals, strconv.FormatUint(v, 10))
		}
		if len(vals) == 0 {
			return "OK"
		}
		return "OK " + strings.Join(vals, ",")
	}
	return "ERR unreachable"
}

// stubRun prefills the stub like kv-mix does (unless it answers
// BUSY) and runs a short untraced audited run against it.
func stubRun(t *testing.T, s *stubKV) *outcome {
	t.Helper()
	addr := startStub(t, s)
	if !s.busy {
		if err := prefill(addr, prefillStream(3)); err != nil {
			t.Fatal(err)
		}
	}
	streams := []*kvStream{genKVStream(3, 0, 4096), genKVStream(3, 1, 4096)}
	o := newOutcome()
	if _, err := runAudited(o, addr, streams, 20*time.Millisecond, 200*time.Millisecond, false); err != nil {
		t.Fatal(err)
	}
	return o
}

func TestAuditControlPasses(t *testing.T) {
	o := stubRun(t, &stubKV{})
	if !o.correct() || o.failed != 0 {
		t.Fatalf("a faithful server failed the audit: violations %q, indeterminate %q, failed %d",
			o.violations, o.indeterminate, o.failed)
	}
}

func TestPlantedAuditMismatch(t *testing.T) {
	o := stubRun(t, &stubKV{leakDel: true})
	if o.correct() {
		t.Fatal("a server that answers DEL without deleting passed the audit")
	}
	if len(o.violations) != 1 || !strings.Contains(o.violations[0], "audit mismatch") {
		t.Fatalf("violations = %q, want one audit mismatch", o.violations)
	}
	// Signed deltas, never a wrapped uint64.
	if strings.Contains(o.violations[0], "1844674407") {
		t.Fatalf("audit verdict printed a wrapped value: %s", o.violations[0])
	}
}

func TestStubBusyRaisesFailRatio(t *testing.T) {
	o := stubRun(t, &stubKV{busy: true})
	if o.attempted == 0 || o.failed != o.attempted {
		t.Fatalf("BUSY on every request: failed %d of %d attempted, want all", o.failed, o.attempted)
	}
	if !o.correct() {
		t.Fatalf("refused requests change nothing, so the audit must still pass: %q %q", o.violations, o.indeterminate)
	}
}

func TestWatchdogCountsUnfinishedOps(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	ws := []*worker{{idx: 0, stream: make([]uint64, 4)}, {idx: 1, stream: make([]uint64, 4)}}
	step := func(w *worker, op, id uint64, sp *spanLog) bool {
		if w.idx == 0 && id&0xff == 2 {
			<-block // one op never returns
		}
		return true
	}
	res := runLoop(ws, step, loopSpec{timed: 300 * time.Millisecond, intervals: 3, stall: 200 * time.Millisecond, out: t.TempDir()})
	if res.hung == "" {
		t.Fatal("a stuck op did not expire the watchdog")
	}
	o := newOutcome()
	if res.report(o) {
		t.Fatal("a hung run was reported quiescent")
	}
	if o.failed < 1 || len(o.indeterminate) != 1 {
		t.Fatalf("failed %d, indeterminate %q: want the stuck op failed and the check undecided", o.failed, o.indeterminate)
	}
	if o.correct() {
		t.Fatal("a run with no decided check was reported correct")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks every metric name and unit, that
// BENCHMARK.json lists exactly the metrics the program prints, and that
// a result line carries exactly one set.
func TestMetricNames(t *testing.T) {
	for _, set := range []map[string]string{endToEnd, perLayer} {
		for name, unit := range set {
			if !nameRE.MatchString(name) || !unitRE.MatchString(unit) {
				t.Errorf("bad metric name or unit: %q %q", name, unit)
			}
		}
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	compare := func(what string, listed []struct{ Name, Unit string }, want map[string]string) {
		if len(listed) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", what, len(listed), len(want))
		}
		for _, m := range listed {
			if want[m.Name] != m.Unit {
				t.Errorf("%s: BENCHMARK.json has %s in %q, the program prints %q", what, m.Name, m.Unit, want[m.Name])
			}
		}
	}
	compare("end_to_end", bench.EndToEnd, endToEnd)
	compare("per_layer", bench.PerLayer, perLayer)
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	for _, trace := range []bool{false, true} {
		var buf bytes.Buffer
		o := newOutcome()
		o.attempted, o.checked = 1, 1
		emit(&buf, config{workload: "lib-ops", trace: trace}, o)
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var res resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if trace {
			want = perLayer
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %v: result carries %d metrics, want %d", trace, len(res.Metrics), len(want))
		}
	}
}
