package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/kvwire"
)

// Sizes of kv-mix, recorded in every result's info line.
const (
	kvConns     = 2    // load connections: the host's nproc
	kvWindow    = 16   // pipelined requests each connection keeps in flight
	kvTenants   = 4    // kvserver's shipped default
	kvKeys      = 1024 // key range per tenant (kvload's default)
	kvPrefill   = 256  // entries PUT per tenant map before the run (kvload's default)
	kvPrefillQ  = 64   // elements PUSHed per tenant queue (kvload's prefill/4)
	kvStreamLen = 1 << 19
	kvIOTimeout = 10 * time.Second // no response for this long: the server is hung
	kvSpanEvery = 8                // traced run: one response in this many gets spans
	kvMaxRTT    = 1 << 21          // round trips kept per connection
)

// kvMix is kvload's default mix, in percent.
var kvMix = []struct {
	op kvwire.Op
	pc int
}{
	{kvwire.OpGet, 60}, {kvwire.OpPut, 15}, {kvwire.OpDel, 5}, {kvwire.OpMove, 10},
	{kvwire.OpXfer, 4}, {kvwire.OpPush, 2}, {kvwire.OpPop, 2}, {kvwire.OpDrain, 2},
}

// kvStream is one connection's pre-generated requests: the wire lines
// back to back, and the request each line encodes.
type kvStream struct {
	buf  []byte
	ends []int // line i is buf[ends[i-1]:ends[i]] (ends[-1] = 0)
	reqs []kvwire.Request
}

func (s *kvStream) line(i int) []byte {
	start := 0
	if i > 0 {
		start = s.ends[i-1]
	}
	return s.buf[start:s.ends[i]]
}

func (s *kvStream) add(r kvwire.Request) {
	s.buf = r.Append(s.buf)
	s.ends = append(s.ends, len(s.buf))
	s.reqs = append(s.reqs, r)
}

// genKVStream builds connection c's requests as kvload would: uniform
// tenants and keys, two distinct tenants for composed ops, 2-key XFERs
// and DRAINs of 1..4.
func genKVStream(seed uint64, c, n int) *kvStream {
	r := rand.New(rand.NewPCG(seed, 0x6b76<<8|uint64(c)))
	s := &kvStream{}
	key := func() uint64 { return r.Uint64N(kvKeys) }
	for i := 0; i < n; i++ {
		x, op := r.IntN(100), kvwire.OpGet
		for _, m := range kvMix {
			if x < m.pc {
				op = m.op
				break
			}
			x -= m.pc
		}
		tn := r.IntN(kvTenants)
		req := kvwire.Request{Op: op, Tenant: tn, DTenant: (tn + 1 + r.IntN(kvTenants-1)) % kvTenants}
		switch op {
		case kvwire.OpGet, kvwire.OpDel:
			req.Keys = []uint64{key()}
		case kvwire.OpPut:
			req.Keys, req.Val = []uint64{key()}, value(seed, uint64(c)<<32|uint64(i))
		case kvwire.OpPush:
			req.Val = value(seed, uint64(c)<<32|uint64(i))
		case kvwire.OpMove:
			req.Keys, req.TKeys = []uint64{key()}, []uint64{key()}
		case kvwire.OpXfer:
			sk, tk := key(), key()
			req.Keys = []uint64{sk, (sk + 1 + r.Uint64N(kvKeys-1)) % kvKeys}
			req.TKeys = []uint64{tk, (tk + 1 + r.Uint64N(kvKeys-1)) % kvKeys}
		case kvwire.OpDrain:
			req.N = 1 + r.IntN(4)
		}
		s.add(req)
	}
	return s
}

// prefillStream PUTs kvPrefill distinct keys into every tenant map and
// PUSHes kvPrefillQ elements onto every tenant queue.
func prefillStream(seed uint64) *kvStream {
	r := rand.New(rand.NewPCG(seed, 0x70726566))
	s := &kvStream{}
	for tn := 0; tn < kvTenants; tn++ {
		for i, k := range r.Perm(kvKeys)[:kvPrefill] {
			s.add(kvwire.Request{Op: kvwire.OpPut, Tenant: tn, Keys: []uint64{uint64(k)}, Val: value(seed, 1<<40|uint64(tn<<20|i))})
		}
		for i := 0; i < kvPrefillQ; i++ {
			s.add(kvwire.Request{Op: kvwire.OpPush, Tenant: tn, Val: value(seed, 1<<41|uint64(tn<<20|i))})
		}
	}
	return s
}

// totals is the conservation state the client tracks from responses:
// entries and value sum over all maps, elements over all queues. They
// are signed deltas from the AUDIT baseline.
type totals struct {
	mapN, mapSum, queueN int64
}

// kvTally is what one connection observed. Only its client goroutine
// writes it; done is also read live for the interval rates.
type kvTally struct {
	done, failed atomic.Int64 // responses received (failed included)
	timedDone    int64        // responses received in the timed phase
	flushes      int64        // flushes in the timed phase
	sent         int64        // requests written in the timed phase
	totals       totals
	rtt          []int64      // timed phase round trips, ns
	nrtt         atomic.Int64 // len(rtt), for the interval cuts
	responses    []string     // traced phase: a sample of response lines
	spans        *spanLog
	violations   []string
	statuses     map[string]int64 // answers by "<verb> <status>"
	// inFlight are the requests written but never answered (set when
	// the connection ends); ambiguous counts those that mutate totals.
	inFlight, ambiguous int64
	err                 error
}

// kvClient drives one connection closed-loop from one goroutine: it
// tops the window up to kvWindow requests in flight with one flush,
// then reads at least one response and every further one already
// buffered, and repeats. Responses come back in request order.
type kvClient struct {
	conn   net.Conn
	stream *kvStream
	tally  *kvTally
	phase  *atomic.Int32
	traced bool
	epoch  time.Time
}

// inFlight is one written, unanswered request.
type inFlight struct {
	idx  int   // stream index
	sent int64 // flush time, ns since the epoch
}

func (c *kvClient) run() {
	t := c.tally
	w := bufio.NewWriterSize(c.conn, 64<<10)
	rd := bufio.NewReaderSize(c.conn, 64<<10)
	var window [kvWindow]inFlight // a ring: head is the oldest request
	head, n := 0, 0
	next := 0 // next stream index to send
	defer func() {
		c.conn.Close()
		for ; n > 0; n-- {
			t.unanswered(c.stream.reqs[window[head].idx])
			head = (head + 1) % kvWindow
		}
	}()
	for seq := 0; ; {
		if c.phase.Load() != phaseStop && n < kvWindow {
			added := 0
			for ; n < kvWindow; n, added = n+1, added+1 {
				window[(head+n)%kvWindow].idx = next
				w.Write(c.stream.line(next))
				next = (next + 1) % len(c.stream.reqs)
			}
			now := time.Since(c.epoch).Nanoseconds()
			for i := n - added; i < n; i++ {
				window[(head+i)%kvWindow].sent = now
			}
			if c.phase.Load() == phaseTimed {
				t.flushes++
				t.sent += int64(added)
			}
			if err := w.Flush(); err != nil {
				t.err = err
				return
			}
		}
		if n == 0 {
			return // stopped and drained
		}
		for first := true; n > 0 && (first || rd.Buffered() > 0); first = false {
			c.conn.SetReadDeadline(time.Now().Add(kvIOTimeout))
			raw, err := rd.ReadSlice('\n')
			if err != nil {
				t.err = err
				return
			}
			f := window[head]
			head, n = (head+1)%kvWindow, n-1
			c.response(seq, f, raw)
			seq++
		}
	}
}

// response checks and records the answer to request f.
func (c *kvClient) response(seq int, f inFlight, raw []byte) {
	t := c.tally
	now := time.Since(c.epoch).Nanoseconds()
	line := string(raw[:len(raw)-1])
	req := c.stream.reqs[f.idx]
	ph := c.phase.Load()
	var t0 time.Time
	if c.traced && ph == phaseTimed && seq%kvSpanEvery == 0 {
		t0 = time.Now()
	}
	resp, perr := kvwire.ParseResponse(line, true)
	if !t0.IsZero() {
		t.spans.add("kvwire.parse_response", uint64(seq), t0, time.Now())
		t.spans.add("op", uint64(seq), c.epoch.Add(time.Duration(f.sent)), c.epoch.Add(time.Duration(now)))
		if len(t.responses) < 1<<16 {
			t.responses = append(t.responses, line)
		}
	}
	if perr != nil {
		t.violations = append(t.violations, fmt.Sprintf("%s: unparsable response %q: %v", req.Op, line, perr))
		t.failed.Add(1)
	} else if !t.account(req, resp) {
		t.failed.Add(1)
	}
	if ph == phaseTimed {
		t.timedDone++
		if len(t.rtt) < cap(t.rtt) {
			t.rtt = append(t.rtt, now-f.sent)
			t.nrtt.Store(int64(len(t.rtt)))
		}
	}
	t.done.Add(1)
}

// unanswered counts a request that was written and never answered.
func (t *kvTally) unanswered(req kvwire.Request) {
	t.inFlight++
	if mutates(req.Op) {
		t.ambiguous++
	}
}

// mutates reports whether op changes the conservation totals. Composed
// ops only relocate entries, so their loss cannot unbalance the audit.
func mutates(op kvwire.Op) bool {
	return op == kvwire.OpPut || op == kvwire.OpDel || op == kvwire.OpPush || op == kvwire.OpPop
}

// account checks one response against its request and folds its effect
// into the tracked totals. It reports false for a failed request.
func (t *kvTally) account(req kvwire.Request, r kvwire.Response) bool {
	if t.statuses == nil {
		t.statuses = map[string]int64{}
	}
	t.statuses[req.Op.String()+" "+r.Status]++
	bad := func() bool {
		t.violations = append(t.violations, fmt.Sprintf("%s answered %s %v", req.Op, r.Status, r.Vals))
		return false
	}
	switch r.Status {
	case "BUSY", "TIMEOUT", "ERR":
		return false // refused or failed: not executed
	}
	switch req.Op {
	case kvwire.OpGet:
		if !(r.Status == "OK" && len(r.Vals) == 1 || r.Status == "NF") {
			return bad()
		}
	case kvwire.OpPut:
		switch r.Status {
		case "OK":
			t.totals.mapN++
			t.totals.mapSum += int64(req.Val)
		case "EXISTS":
		default:
			return bad()
		}
	case kvwire.OpDel:
		switch {
		case r.Status == "OK" && len(r.Vals) == 1:
			t.totals.mapN--
			t.totals.mapSum -= int64(r.Vals[0])
		case r.Status == "NF":
		default:
			return bad()
		}
	case kvwire.OpPush:
		if r.Status != "OK" {
			return bad()
		}
		t.totals.queueN++
	case kvwire.OpPop:
		switch {
		case r.Status == "OK" && len(r.Vals) == 1:
			t.totals.queueN--
		case r.Status == "NF":
		default:
			return bad()
		}
	case kvwire.OpMove:
		if !(r.Status == "OK" && len(r.Vals) == 1 || r.Status == "FAIL") {
			return bad()
		}
	case kvwire.OpXfer:
		if !(r.Status == "OK" && len(r.Vals) == len(req.Keys) || r.Status == "FAIL") {
			return bad()
		}
	case kvwire.OpDrain:
		if r.Status != "OK" || len(r.Vals) > req.N {
			return bad()
		}
	}
	return true
}

// ---- control connection ----------------------------------------------

// control is a one-request-at-a-time connection for AUDIT, STATS and
// the prefill.
type control struct {
	conn net.Conn
	rd   *bufio.Reader
}

func dialControl(addr string) (*control, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &control{conn: c, rd: bufio.NewReader(c)}, nil
}

// call sends one request line and returns the response line.
func (c *control) call(line string, timeout time.Duration) (string, error) {
	c.conn.SetDeadline(time.Now().Add(timeout))
	if _, err := io.WriteString(c.conn, line+"\n"); err != nil {
		return "", err
	}
	resp, err := c.rd.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimSuffix(resp, "\n"), nil
}

// audit is one AUDIT reading: map entries, map value sum (wrapping, as
// the server keeps it) and queue elements.
type audit struct{ mapN, mapSum, queueN uint64 }

func (c *control) audit(timeout time.Duration) (audit, error) {
	line, err := c.call("AUDIT", timeout)
	if err != nil {
		return audit{}, fmt.Errorf("AUDIT: %w", err)
	}
	r, err := kvwire.ParseResponse(line, true)
	if err != nil || !r.OK() || len(r.Vals) != 3 {
		return audit{}, fmt.Errorf("AUDIT answered %q", line)
	}
	return audit{r.Vals[0], r.Vals[1], r.Vals[2]}, nil
}

// delta is the signed change from a to b. Counts and sums are unsigned
// and the sum wraps, but the difference of two readings, read as two's
// complement, is the true signed change whenever that change fits in
// 63 bits, so nothing printed ever shows a wrapped value.
func (a audit) delta(b audit) totals {
	return totals{int64(b.mapN - a.mapN), int64(b.mapSum - a.mapSum), int64(b.queueN - a.queueN)}
}

func (c *control) stats(timeout time.Duration) (kvwire.Doc, error) {
	var doc kvwire.Doc
	line, err := c.call("STATS", timeout)
	if err != nil {
		return doc, fmt.Errorf("STATS: %w", err)
	}
	r, err := kvwire.ParseResponse(line, false)
	if err != nil || !r.OK() {
		return doc, fmt.Errorf("STATS answered %.80q", line)
	}
	return doc, json.Unmarshal([]byte(r.Raw), &doc)
}

// prefill sends s pipelined over one connection and checks every answer.
func prefill(addr string, s *kvStream) error {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(30 * time.Second))
	errc := make(chan error, 1)
	go func() {
		_, err := c.Write(s.buf)
		errc <- err
	}()
	rd := bufio.NewReader(c)
	for i := range s.reqs {
		line, err := rd.ReadString('\n')
		if err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
		if line != "OK\n" {
			return fmt.Errorf("prefill: %s answered %q", s.reqs[i].Op, line)
		}
	}
	return <-errc
}

// ---- the kvserver process --------------------------------------------

// server is a running kvserver subprocess.
type server struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	exited chan struct{}
}

// listenWatch is kvserver's stdout: it passes on the address from the
// "listening on" line and drops the rest.
type listenWatch struct {
	buf   []byte
	addrc chan string
}

func (l *listenWatch) Write(p []byte) (int, error) {
	if l.addrc == nil {
		return len(p), nil
	}
	l.buf = append(l.buf, p...)
	for {
		i := bytes.IndexByte(l.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		if _, a, ok := strings.Cut(string(l.buf[:i]), "listening on "); ok {
			l.addrc <- a
			l.addrc, l.buf = nil, nil
			return len(p), nil
		}
		l.buf = l.buf[i+1:]
	}
}

// startServer runs the kvserver binary on a free loopback port with its
// shipped defaults and waits until it listens.
func startServer(bin string) (*server, error) {
	addrc := make(chan string, 1)
	s := &server{cmd: exec.Command(bin, "-addr", "127.0.0.1:0"), exited: make(chan struct{})}
	s.cmd.Stdout = &listenWatch{addrc: addrc}
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start kvserver: %w", err)
	}
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()
	select {
	case s.addr = <-addrc:
		return s, nil
	case <-s.exited:
		return nil, fmt.Errorf("kvserver exited before listening: %s", s.stderr.String())
	case <-time.After(10 * time.Second):
		s.kill()
		return nil, errors.New("kvserver did not start listening within 10s")
	}
}

func (s *server) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

// stop asks the server to drain (SIGTERM) and waits for it to exit,
// killing it if it does not within 10s.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		s.kill()
	}
}

func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

// quit makes the Go runtime of a hung server dump every goroutine's
// stack (SIGQUIT), waits for it to exit and returns its stderr.
func (s *server) quit() string {
	s.cmd.Process.Signal(syscall.SIGQUIT)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		s.kill()
	}
	return s.stderr.String()
}

// ---- the workload ------------------------------------------------------

// kvSetupReps: server start plus prefill is short, so it is repeated
// more often than the library set-ups for a steady median.
const kvSetupReps = 5

// kvResult is what one run of the load connections measured.
type kvResult struct {
	tallies []*kvTally
	rate    float64 // median of the per-interval throughputs, req/s
	rates   []float64
	cuts    [][]int64 // per interval, each connection's round-trip count
	timed   int64     // responses in the timed window
}

func (r kvResult) sum(f func(t *kvTally) int64) int64 {
	var n int64
	for _, t := range r.tallies {
		n += f(t)
	}
	return n
}

func (r kvResult) rtts() []int64 {
	var all []int64
	for _, t := range r.tallies {
		all = append(all, t.rtt...)
	}
	return all
}

// hung reports whether a connection timed out waiting for a response.
func (r kvResult) hung() bool {
	for _, t := range r.tallies {
		var ne net.Error
		if errors.As(t.err, &ne) && ne.Timeout() {
			return true
		}
	}
	return false
}

// runKV drives one connection per stream against addr: warm (untimed),
// then timed, split into rateIntervals for the median rate.
func runKV(addr string, streams []*kvStream, warm, timed time.Duration, traced bool) (kvResult, error) {
	var phase atomic.Int32
	epoch := time.Now()
	res := kvResult{}
	var conns []net.Conn
	for range streams {
		c, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return res, err
		}
		conns = append(conns, c)
	}
	var wg sync.WaitGroup
	for i, st := range streams {
		t := &kvTally{rtt: make([]int64, 0, kvMaxRTT)}
		if traced {
			t.spans = newSpanLog(epoch)
		}
		res.tallies = append(res.tallies, t)
		cl := &kvClient{conn: conns[i], stream: st, tally: t, phase: &phase, traced: traced, epoch: epoch}
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.run()
		}()
	}
	var exited atomic.Int32
	go func() {
		wg.Wait()
		exited.Store(1)
	}()
	total := func() int64 { return res.sum(func(t *kvTally) int64 { return t.done.Load() }) }
	// wait sleeps until t; false when every connection ended early.
	wait := func(t time.Time) bool {
		for time.Now().Before(t) {
			if exited.Load() == 1 {
				return false
			}
			time.Sleep(min(20*time.Millisecond, time.Until(t)))
		}
		return true
	}
	if wait(time.Now().Add(warm)) {
		start, n0 := time.Now(), total()
		phase.Store(phaseTimed)
		step := timed / rateIntervals
		var rates []float64
		prevT, prevN := start, n0
		for k := 1; k <= rateIntervals; k++ {
			if !wait(start.Add(step * time.Duration(k))) {
				break
			}
			now, n := time.Now(), total()
			rates = append(rates, float64(n-prevN)/now.Sub(prevT).Seconds())
			prevT, prevN = now, n
			cut := make([]int64, len(res.tallies))
			for i, t := range res.tallies {
				cut[i] = t.nrtt.Load()
			}
			res.cuts = append(res.cuts, cut)
		}
		res.rate = median(rates)
		res.rates = rates
	}
	phase.Store(phaseStop)
	wg.Wait()
	res.timed = res.sum(func(t *kvTally) int64 { return t.timedDone })
	return res, nil
}

// fold adds a run's accounting and protocol checks to o and returns
// the tracked conservation totals and the count of requests whose
// effect is unknown.
func (r kvResult) fold(o *outcome) (totals, int64) {
	var tot totals
	var ambiguous int64
	for i, t := range r.tallies {
		o.attempted += t.done.Load() + t.inFlight
		o.failed += t.failed.Load() + t.inFlight
		tot.mapN += t.totals.mapN
		tot.mapSum += t.totals.mapSum
		tot.queueN += t.totals.queueN
		ambiguous += t.ambiguous
		if len(t.violations) > 0 {
			o.violate("connection %d: %d protocol violations, first: %s", i, len(t.violations), t.violations[0])
		}
		answers, _ := o.info["answers"].(map[string]int64)
		if answers == nil {
			answers = map[string]int64{}
			o.info["answers"] = answers
		}
		for k, v := range t.statuses {
			answers[k] += v
		}
		if t.err != nil {
			fmt.Printf("connection %d ended with %d requests unanswered: %v\n", i, t.inFlight, t.err)
		}
	}
	return tot, ambiguous
}

func runKVMix(cfg config, o *outcome) error {
	o.info["sizes"] = map[string]any{
		"connections": kvConns, "window": kvWindow, "tenants": kvTenants, "keys_per_tenant": kvKeys,
		"prefill_per_tenant": kvPrefill, "queue_prefill_per_tenant": kvPrefillQ, "stream_per_conn": kvStreamLen,
		"mix":    "get=60,put=15,del=5,move=10,transfer=4,push=2,pop=2,drain=2",
		"loop":   "closed, pipelined",
		"server": "kvserver shipped defaults on 127.0.0.1",
	}
	if cfg.kvserver == "" {
		return errors.New("kv-mix needs --kvserver")
	}

	pre := prefillStream(cfg.seed)
	streams := make([]*kvStream, kvConns)
	for c := range streams {
		streams[c] = genKVStream(cfg.seed, c, kvStreamLen)
	}
	var srv *server
	var setups []float64
	for i := 0; i < kvSetupReps; i++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		var err error
		if srv, err = startServer(cfg.kvserver); err != nil {
			return err
		}
		if err := prefill(srv.addr, pre); err != nil {
			srv.kill()
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	o.info["setup_runs_s"] = setups
	err := driveKV(cfg, o, srv, streams)
	if err != nil {
		srv.kill()
		return err
	}
	o.metrics["setup_s"] = median(setups)
	return nil
}

// auditedRun is what the load phases between two AUDITs measured.
type auditedRun struct {
	results []kvResult // one per phase: untraced, then traced
	// before and after are STATS around the traced phase.
	before, after kvwire.Doc
	hung          bool
}

// runAudited audits the server at addr, runs the load phases (an
// untraced one, and a traced one when traced is set), audits again and
// checks that the server's signed change equals what the client's
// answered requests add up to.
func runAudited(o *outcome, addr string, streams []*kvStream, warm, window time.Duration, traced bool) (auditedRun, error) {
	var ss auditedRun
	ctl, err := dialControl(addr)
	if err != nil {
		return ss, err
	}
	defer ctl.conn.Close()
	base, err := ctl.audit(10 * time.Second)
	if err != nil {
		return ss, err
	}
	var tracked totals
	var ambiguous int64
	for _, tr := range []bool{false, true} {
		if tr && !traced {
			break
		}
		if tr {
			if ss.before, err = ctl.stats(10 * time.Second); err != nil {
				return ss, err
			}
		}
		res, err := runKV(addr, streams, warm, window, tr)
		if err != nil {
			return ss, err
		}
		ss.results = append(ss.results, res)
		tot, amb := res.fold(o)
		tracked.mapN += tot.mapN
		tracked.mapSum += tot.mapSum
		tracked.queueN += tot.queueN
		ambiguous += amb
		if ss.hung = res.hung(); ss.hung {
			break
		}
	}
	got, err := ctl.audit(10 * time.Second)
	if err != nil {
		o.indeterminate = append(o.indeterminate, "final AUDIT failed: "+err.Error())
		return ss, nil
	}
	d := base.delta(got)
	verdict := fmt.Sprintf("server change map entries %+d, map sum %+d, queue elements %+d; client tracked %+d, %+d, %+d",
		d.mapN, d.mapSum, d.queueN, tracked.mapN, tracked.mapSum, tracked.queueN)
	switch {
	case ambiguous > 0:
		o.indeterminate = append(o.indeterminate, fmt.Sprintf("audit: %d mutating requests went unanswered (%s)", ambiguous, verdict))
	case d != tracked:
		o.checked++
		o.violate("audit mismatch: %s", verdict)
	default:
		o.checked++
		o.info["audit"] = "pass: " + verdict
	}
	if traced && !ss.hung {
		if ss.after, err = ctl.stats(10 * time.Second); err != nil {
			return ss, err
		}
	}
	return ss, nil
}

// driveKV runs the audited load against a prefilled server, reads its
// memory and stops it.
func driveKV(cfg config, o *outcome, srv *server, streams []*kvStream) error {
	window := time.Duration(cfg.seconds * float64(time.Second))
	warm := min(time.Second, window/10)
	if cfg.trace {
		window /= 2
	}
	ss, err := runAudited(o, srv.addr, streams, warm, window, cfg.trace)
	if err != nil {
		return err
	}
	if ss.hung {
		stacks := srv.quit()
		fmt.Printf("watchdog: kvserver stopped answering; its goroutine stacks follow\n%s\nwatchdog: end of stacks\n", stacks)
		return nil
	}
	last := ss.results[len(ss.results)-1]
	if cfg.trace {
		setKVLayerMetrics(o, ss.results[0], last, streams, ss.before, ss.after)
		var logs []*spanLog
		for _, t := range last.tallies {
			logs = append(logs, t.spans)
		}
		if err := writeSpans(cfg.out, cfg.workload, logs); err != nil {
			return err
		}
	} else {
		rtt := make([][]int64, len(last.tallies))
		n := 0
		for i, t := range last.tallies {
			rtt[i] = t.rtt
			n += len(t.rtt)
		}
		o.info["interval_rates"] = last.rates
		o.metrics["ops_per_s"] = last.rate
		o.metrics["latency_p50_us"] = intervalQuantile(rtt, last.cuts, 0.50) / 1e3
		o.metrics["latency_p99_us"] = intervalQuantile(rtt, last.cuts, 0.99) / 1e3
		o.info["latency_samples"] = n
		all := last.rtts()
		o.info["whole_window_p50_p99_us"] = []float64{float64(quantile(all, 0.50)) / 1e3, float64(quantile(all, 0.99)) / 1e3}
		mem, err := peakRSSMB(srv.pid())
		if err != nil {
			return err
		}
		o.metrics["mem_mb"] = mem
	}
	srv.stop()
	return nil
}

// setKVLayerMetrics fills kv-mix's per-layer metrics from the traced
// run, the server's STATS before and after it, and parse timings over
// the workload's own lines.
func setKVLayerMetrics(o *outcome, untraced, traced kvResult, streams []*kvStream, before, after kvwire.Doc) {
	stage := map[string]kvwire.StageRow{}
	for _, r := range after.Stages {
		stage[r.Stage] = r
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	o.metrics["server.queue_p50_us"] = us(stage["queue"].P50NS)
	o.metrics["server.parse_p50_us"] = us(stage["parse"].P50NS)
	o.metrics["server.execute_p50_us"] = us(stage["execute"].P50NS)
	o.metrics["server.execute_p99_us"] = us(stage["execute"].P99NS)
	o.metrics["server.write_p50_us"] = us(stage["write"].P50NS)
	o.metrics["server.write_p99_us"] = us(stage["write"].P99NS)
	o.metrics["server.busy_total"] = float64(after.Obs["busy_total"])
	reqs := float64(max(traced.timed, 1))
	delta := func(name string) float64 { return float64(after.Obs[name] - before.Obs[name]) }
	o.metrics["kcas.publish_per_op"] = delta("kcas_publish_total") / reqs
	o.metrics["kcas.helps_per_op"] = delta("kcas_helps_total") / reqs
	if pub := delta("kcas_publish_total"); pub > 0 {
		o.metrics["kcas.abort_ratio"] = delta("kcas_aborts_total") / pub
	}
	o.metrics["kcas.descs_carved"] = float64(after.Obs["kcas_descs_carved_total"])
	o.metrics["hashmap.grows"] = delta("map_grows_total")
	// The server's span wall time is not exported as a histogram; its
	// stage medians summed stand in for the span median.
	rtt := traced.rtts()
	server := stage["queue"].P50NS + stage["parse"].P50NS + stage["execute"].P50NS +
		stage["degrade"].P50NS + stage["write"].P50NS
	o.metrics["client.net_residual_p50_us"] = us(quantile(rtt, 0.50) - server)
	o.metrics["client.flushes_per_req"] = float64(traced.sum(func(t *kvTally) int64 { return t.flushes })) /
		float64(max(traced.sum(func(t *kvTally) int64 { return t.sent }), 1))
	if traced.rate > 0 {
		o.metrics["trace.overhead_ratio"] = untraced.rate / traced.rate
	}
	var lines, responses []string
	for _, s := range streams {
		for i := 0; i < len(s.reqs) && i < 1<<17; i++ {
			l := s.line(i)
			lines = append(lines, string(l[:len(l)-1]))
		}
	}
	for _, t := range traced.tallies {
		responses = append(responses, t.responses...)
	}
	o.metrics["kvwire.parse_request_ns"] = timePerCall(lines, func(l string) { kvwire.ParseRequest(l, kvTenants) })
	o.metrics["kvwire.parse_response_ns"] = timePerCall(responses, func(l string) { kvwire.ParseResponse(l, true) })
	o.info["latency_samples"] = len(rtt)
	o.info["rtt_p50_us"] = us(quantile(rtt, 0.50))
}

// timePerCall is the mean time of f over every input, in ns.
func timePerCall(in []string, f func(string)) float64 {
	if len(in) == 0 {
		return 0
	}
	t0 := time.Now()
	for _, s := range in {
		f(s)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(in))
}
