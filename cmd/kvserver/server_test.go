package main

// End-to-end smoke coverage for the service: an in-process server on a
// loopback listener, concurrent raw-TCP clients running the mixed
// get/put/del + move/transfer/push/pop/drain workload, and a two-level
// conservation check — the wire-level AUDIT totals against
// response-tracked expectations, then a direct in-process sweep of the
// tenant maps asserting every tracked value is present in EXACTLY one
// tenant map (a moved or transferred entry may change maps, never
// duplicate or vanish). Run under -race in CI.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/kvwire"
	"repro/internal/obs"
	"repro/internal/xrand"
)

// client is one test connection with response parsing.
type client struct {
	conn net.Conn
	in   *bufio.Scanner
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	return &client{conn: conn, in: bufio.NewScanner(conn)}
}

func (c *client) roundTrip(t *testing.T, line string, values bool) kvwire.Response {
	t.Helper()
	if _, err := fmt.Fprintf(c.conn, "%s\n", line); err != nil {
		t.Fatalf("send %q: %v", line, err)
	}
	if !c.in.Scan() {
		t.Fatalf("no response to %q: %v", line, c.in.Err())
	}
	r, err := kvwire.ParseResponse(c.in.Text(), values)
	if err != nil {
		t.Fatalf("response to %q: %v", line, err)
	}
	return r
}

// ledger tracks, from successful responses only, the values that must
// be live in the tenant maps / queues when the run quiesces. Entries
// are signed per-value deltas (+1 per successful PUT, −1 per
// successful DEL), not a set: the ledger's mutex is taken after the
// server's linearization, so two clients racing PUT/DEL on one key can
// reach the ledger in the opposite order — deltas commute, set
// add/remove does not. Values are globally unique tokens, so at
// quiesce each delta must be 0 (created then deleted) or 1 (live);
// anything else is itself a conservation violation.
type ledger struct {
	mu     sync.Mutex
	mapped map[uint64]int
	queued int64
}

func (l *ledger) put(v uint64) {
	l.mu.Lock()
	l.mapped[v]++
	l.mu.Unlock()
}

func (l *ledger) del(v uint64) {
	l.mu.Lock()
	l.mapped[v]--
	l.mu.Unlock()
}

func (l *ledger) queue(delta int64) {
	l.mu.Lock()
	l.queued += delta
	l.mu.Unlock()
}

// live returns the values with delta 1, failing on any other nonzero
// delta (a value deleted twice or never created).
func (l *ledger) live(t *testing.T) map[uint64]struct{} {
	t.Helper()
	out := make(map[uint64]struct{})
	for v, d := range l.mapped {
		switch d {
		case 0:
		case 1:
			out[v] = struct{}{}
		default:
			t.Fatalf("value %d has impossible ledger delta %d", v, d)
		}
	}
	return out
}

func TestKVServerE2E(t *testing.T) {
	const (
		tenants = 3
		clients = 6
		opsEach = 1500
		keys    = 64 // small key range per tenant → real collisions
	)
	s := NewServer(Config{Tenants: tenants, Workers: clients + 2, Shards: 2, Buckets: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	addr := ln.Addr().String()

	led := &ledger{mapped: make(map[uint64]int)}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := dial(t, addr)
			defer cl.conn.Close()
			rng := xrand.New(uint64(c)*0x9e3779b97f4a7c15 + 1)
			seq := uint64(0)
			fresh := func() uint64 {
				seq++
				return uint64(c+1)<<40 | seq // globally unique token
			}
			for i := 0; i < opsEach; i++ {
				tn := int(rng.Uint64() % tenants)
				dt := (tn + 1 + int(rng.Uint64()%(tenants-1))) % tenants
				k := rng.Uint64() % keys
				var r kvwire.Response
				switch p := rng.Uint64() % 100; {
				case p < 30:
					v := fresh()
					r = cl.roundTrip(t, fmt.Sprintf("PUT %d %d %d", tn, k, v), true)
					if r.OK() {
						led.put(v)
					}
				case p < 45:
					r = cl.roundTrip(t, fmt.Sprintf("GET %d %d", tn, k), true)
				case p < 55:
					r = cl.roundTrip(t, fmt.Sprintf("DEL %d %d", tn, k), true)
					if r.OK() {
						led.del(r.Vals[0])
					}
				case p < 70:
					// The composed product op: entry leaves map tn, enters
					// map dt, atomically. The ledger is value-keyed, so a
					// successful move changes nothing in it — that is the
					// conservation claim under test.
					r = cl.roundTrip(t, fmt.Sprintf("MOVE %d %d %d %d", tn, dt, k, rng.Uint64()%keys), true)
				case p < 80:
					sk1, sk2 := k, (k+1+rng.Uint64()%(keys-1))%keys
					tk1, tk2 := rng.Uint64()%keys, (k+3)%keys
					if tk2 == tk1 {
						tk2 = (tk1 + 1) % keys
					}
					r = cl.roundTrip(t, fmt.Sprintf("XFER %d %d %d,%d %d,%d", tn, dt, sk1, sk2, tk1, tk2), true)
				case p < 85:
					r = cl.roundTrip(t, fmt.Sprintf("PUSH %d %d", tn, fresh()), true)
					if r.OK() {
						led.queue(1)
					}
				case p < 90:
					r = cl.roundTrip(t, fmt.Sprintf("POP %d", tn), true)
					if r.OK() {
						led.queue(-1)
					}
				default:
					r = cl.roundTrip(t, fmt.Sprintf("DRAIN %d %d %d", tn, dt, 1+rng.Uint64()%4), true)
				}
				if r.Status == "ERR" {
					t.Errorf("client %d: unexpected ERR %q", c, r.Raw)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Level 1: the wire-level audit against response-tracked totals.
	cl := dial(t, addr)
	defer cl.conn.Close()
	live := led.live(t)
	var wantSum uint64
	for v := range live {
		wantSum += v
	}
	r := cl.roundTrip(t, "AUDIT", true)
	if !r.OK() || len(r.Vals) != 3 {
		t.Fatalf("AUDIT: %+v", r)
	}
	if r.Vals[0] != uint64(len(live)) || r.Vals[1] != wantSum || r.Vals[2] != uint64(led.queued) {
		t.Fatalf("conservation audit failed: server maps=%d sum=%d queues=%d, ledger maps=%d sum=%d queues=%d",
			r.Vals[0], r.Vals[1], r.Vals[2], len(live), wantSum, led.queued)
	}

	// STATS must report per-tenant per-op percentiles for the traffic.
	st := cl.roundTrip(t, "STATS", false)
	var doc kvwire.Doc
	if err := json.Unmarshal([]byte(st.Raw), &doc); err != nil {
		t.Fatalf("STATS JSON: %v\n%s", err, st.Raw)
	}
	var moveRows int
	for _, row := range doc.Rows {
		if row.Ops == 0 || row.P50NS < 0 || row.P999NS < row.P50NS {
			t.Fatalf("implausible stats row %+v", row)
		}
		if row.Op == "MOVE" {
			moveRows++
		}
	}
	if moveRows == 0 {
		t.Fatal("STATS reported no MOVE rows despite move traffic")
	}

	// Level 2: quiesce and sweep the maps in-process — every ledger
	// value present, no value twice (an entry lives in exactly one
	// tenant map even after arbitrary moves and transfers).
	s.Close()
	w := <-s.workers
	seen := make(map[uint64]int)
	for tn := 0; tn < tenants; tn++ {
		for _, k := range s.maps[tn].Keys(w.th) {
			if v, ok := s.maps[tn].Contains(w.th, k); ok {
				seen[v]++
			}
		}
	}
	for v, n := range seen {
		if n != 1 {
			t.Errorf("value %d present in %d map slots (duplicated by a move?)", v, n)
		}
		if _, ok := live[v]; !ok {
			t.Errorf("value %d in a map but not live in the ledger", v)
		}
	}
	for v := range live {
		if seen[v] == 0 {
			t.Errorf("ledger value %d lost (in no tenant map)", v)
		}
	}
}

// TestServerProtocolErrors checks that malformed requests produce ERR
// without poisoning the connection.
func TestServerProtocolErrors(t *testing.T) {
	s := NewServer(Config{Tenants: 2, Workers: 2, Shards: 1, Buckets: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Close()

	cl := dial(t, ln.Addr().String())
	defer cl.conn.Close()
	for _, bad := range []string{"WAT 1 2", "GET 9 1", "MOVE 0 0 1 1", "PUT 0 x y"} {
		if r := cl.roundTrip(t, bad, false); r.Status != "ERR" {
			t.Errorf("%q: got %q, want ERR", bad, r.Status)
		}
	}
	// The connection must still work.
	if r := cl.roundTrip(t, "PING", false); !r.OK() {
		t.Fatalf("PING after errors: %+v", r)
	}
	if r := cl.roundTrip(t, "PUT 1 5 500", false); !r.OK() {
		t.Fatalf("PUT after errors: %+v", r)
	}
	if r := cl.roundTrip(t, "GET 1 5", true); !r.OK() || r.Vals[0] != 500 {
		t.Fatalf("GET after errors: %+v", r)
	}
	if !strings.HasPrefix(cl.roundTrip(t, "STATS", false).Raw, "{") {
		t.Fatal("STATS did not return JSON")
	}

	// "\r\n" line endings: the "\r" is stripped, not parsed.
	for _, line := range []string{"PING\r", "PUT 1 6 600\r"} {
		if r := cl.roundTrip(t, line, false); !r.OK() {
			t.Fatalf("%q: %+v", line, r)
		}
	}
	if r := cl.roundTrip(t, "GET 1 6\r", true); !r.OK() || r.Vals[0] != 600 {
		t.Fatalf("GET with CRLF: %+v", r)
	}

	// A pipelined mix of control and data verbs is answered in request
	// order.
	batch := []struct{ req, want string }{
		{"PUT 0 7 700", "OK"}, {"PING", "OK"}, {"GET 0 7", "OK 700"},
		{"STATS", "OK {*"}, {"WAT", "ERR *"}, {"DEL 0 7", "OK 700"},
		{"PING", "OK"}, {"GET 0 7", "NF"},
	}
	var send strings.Builder
	for _, b := range batch {
		send.WriteString(b.req + "\n")
	}
	if _, err := cl.conn.Write([]byte(send.String())); err != nil {
		t.Fatal(err)
	}
	for _, b := range batch { // a trailing "*" matches any rest
		got := cl.readLine(t)
		if p, ok := strings.CutSuffix(b.want, "*"); got != b.want && !(ok && strings.HasPrefix(got, p)) {
			t.Fatalf("pipelined %q: got %q, want %q", b.req, got, b.want)
		}
	}

	// A final line without "\n" is served at EOF.
	c2 := dial(t, ln.Addr().String())
	defer c2.conn.Close()
	if _, err := c2.conn.Write([]byte("PUT 1 9 900\nGET 1 9")); err != nil {
		t.Fatal(err)
	}
	c2.conn.(*net.TCPConn).CloseWrite()
	for _, want := range []string{"OK", "OK 900"} {
		if got := c2.readLine(t); got != want {
			t.Fatalf("unterminated final line: got %q, want %q", got, want)
		}
	}
	c2.expectClosed(t)

	// A line longer than 64 KiB ends the connection.
	c3 := dial(t, ln.Addr().String())
	defer c3.conn.Close()
	if r := c3.roundTrip(t, "PING", false); !r.OK() {
		t.Fatalf("PING: %+v", r)
	}
	c3.conn.Write([]byte(strings.Repeat("A", 70<<10) + "\n")) // may fail once the server hangs up
	c3.expectClosed(t)
}

// readLine reads one response line under a 5 s deadline.
func (c *client) readLine(t *testing.T) string {
	t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if !c.in.Scan() {
		t.Fatalf("no response line: %v", c.in.Err())
	}
	return c.in.Text()
}

// expectClosed asserts that the server ends the connection with no
// further response.
func (c *client) expectClosed(t *testing.T) {
	t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if c.in.Scan() {
		t.Fatalf("unexpected response %q, want the connection closed", c.in.Text())
	}
	var ne net.Error
	if err := c.in.Err(); errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("connection still open after 5s")
	}
}

// TestServerAnswersBeforePartialLine: coalescing never holds computed
// answers behind a half-sent request.
func TestServerAnswersBeforePartialLine(t *testing.T) {
	s := NewServer(Config{Tenants: 2, Workers: 2, Shards: 1, Buckets: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Close()

	cl := dial(t, ln.Addr().String())
	defer cl.conn.Close()
	if _, err := cl.conn.Write([]byte("PUT 0 1 100\nGET 0 1\nGET 0")); err != nil {
		t.Fatal(err)
	}
	cl.conn.SetReadDeadline(time.Now().Add(time.Second))
	for _, want := range []string{"OK", "OK 100"} {
		if !cl.in.Scan() {
			t.Fatalf("answer %q held behind a partial line: %v", want, cl.in.Err())
		}
		if got := cl.in.Text(); got != want {
			t.Fatalf("got %q, want %q", got, want)
		}
	}
	if _, err := cl.conn.Write([]byte(" 1\n")); err != nil {
		t.Fatal(err)
	}
	if got := cl.readLine(t); got != "OK 100" {
		t.Fatalf("completed line: got %q, want OK 100", got)
	}
}

// TestServerCoalescesPipelinedBatch: a pipelined batch is answered with
// far fewer flushes than requests, and every data-path request in it
// still gets exactly one span whose write stage is measured to its
// batch's flush.
func TestServerCoalescesPipelinedBatch(t *testing.T) {
	s := NewServer(Config{Tenants: 2, Workers: 2, Shards: 1, Buckets: 2, Metrics: true, Spans: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Close()

	cl := dial(t, ln.Addr().String())
	defer cl.conn.Close()
	const n = 64
	var send strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&send, "PUT 0 %d %d\n", i, 100+i)
	}
	if _, err := cl.conn.Write([]byte(send.String())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := cl.readLine(t); got != "OK" {
			t.Fatalf("PUT %d: got %q", i, got)
		}
	}
	if f := s.Stats().Obs["write_flushes_total"]; f == 0 || f > n/4 {
		t.Fatalf("write_flushes_total = %d for a batch of %d, want 1..%d", f, n, n/4)
	}
	spans := s.spans.Completed()
	if len(spans) != n {
		t.Fatalf("%d spans for %d requests", len(spans), n)
	}
	seen := make(map[uint64]bool)
	for _, sp := range spans {
		if seen[sp.Req] {
			t.Fatalf("request %d has two spans", sp.Req)
		}
		seen[sp.Req] = true
		var sum int64
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			sum += sp.Stage[st]
		}
		if sp.Stage[obs.StageWrite] <= 0 || sum > sp.WallNS {
			t.Fatalf("span req=%d: write %d, stage sum %d, wall %d", sp.Req, sp.Stage[obs.StageWrite], sum, sp.WallNS)
		}
	}
}

// TestServerFlushesBatchBeforeKill: a handler killed mid-batch by a
// fault still sends the answers to every earlier request in its batch,
// and loses only the request it died in.
func TestServerFlushesBatchBeforeKill(t *testing.T) {
	const puts, killAt = 4, 3 // the third MOVE's publish kills its handler
	plan, err := repro.ParseFaultPlan([]string{fmt.Sprintf("kcas-publish:kill:nth=%d", killAt)})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(Config{Tenants: 2, Workers: 2, Shards: 1, Buckets: 2, Fault: plan})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Close()

	cl := dial(t, ln.Addr().String())
	defer cl.conn.Close()
	var send strings.Builder
	for i := 0; i < puts; i++ {
		fmt.Fprintf(&send, "PUT 0 %d %d\n", i, 100+i)
	}
	for i := 0; i < puts; i++ {
		fmt.Fprintf(&send, "MOVE 0 1 %d %d\n", i, i)
	}
	if _, err := cl.conn.Write([]byte(send.String())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < puts+killAt-1; i++ {
		if got := cl.readLine(t); !strings.HasPrefix(got, "OK") {
			t.Fatalf("request %d: got %q, want OK", i, got)
		}
	}
	cl.expectClosed(t)
}

// TestServerShedsSlowClient: a client that pipelines requests and never
// reads its answers is disconnected once a flush outlasts the write
// timeout, and its worker returns to the pool.
func TestServerShedsSlowClient(t *testing.T) {
	s := NewServer(Config{Tenants: 2, Workers: 1, Shards: 1, Buckets: 2,
		Metrics: true, WriteTimeout: 50 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.(*net.TCPConn).SetReadBuffer(4 << 10)
	go func() {
		// Large answers fill the socket buffers fast; the writes fail
		// once the server hangs up.
		batch := []byte(strings.Repeat("METRICS\n", 64))
		conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
		for {
			if _, err := conn.Write(batch); err != nil {
				return
			}
		}
	}()
	deadline := time.Now().Add(20 * time.Second)
	for s.slowClients.Load() == 0 || len(s.workers) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("slow client not shed: slow_clients=%d, idle workers=%d",
				s.slowClients.Load(), len(s.workers))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := s.Stats().Obs["slow_clients_total"]; n != 1 {
		t.Fatalf("slow_clients_total = %d, want 1", n)
	}
	// The one worker serves the next client.
	cl := dial(t, ln.Addr().String())
	defer cl.conn.Close()
	if r := cl.roundTrip(t, "PING", false); !r.OK() {
		t.Fatalf("PING after shedding: %+v", r)
	}
}

// TestServerBusyOnDescriptorExhaustion drives the runtime past its
// descriptor capacity and asserts the degradation contract: the
// starved worker answers BUSY (not a crash, not a hung connection),
// descriptor-free traffic keeps flowing on the same connection, and
// the robust counters record the rejections.
func TestServerBusyOnDescriptorExhaustion(t *testing.T) {
	// DescCapacity equals one per-thread carve batch: the first worker
	// that allocates a descriptor takes the whole pool and the second
	// worker's first composed op finds it empty.
	s := NewServer(Config{Tenants: 2, Workers: 2, Shards: 1, Buckets: 2, DescCapacity: 64})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Close()
	addr := ln.Addr().String()

	c1 := dial(t, addr)
	defer c1.conn.Close()
	// c1's worker carves the full pool (a MOVE allocates its descriptor
	// before touching the maps, so even a missing-key MOVE carves).
	if r := c1.roundTrip(t, "MOVE 0 1 99 99", false); r.Status != "FAIL" {
		t.Fatalf("carving MOVE: got %q, want FAIL", r.Status)
	}

	c2 := dial(t, addr)
	defer c2.conn.Close()
	r := c2.roundTrip(t, "MOVE 0 1 99 99", false)
	if r.Status != "BUSY" {
		t.Fatalf("starved worker: got %q, want BUSY", r.Status)
	}
	if !r.Retryable() {
		t.Fatal("BUSY must be retryable")
	}
	// The starved worker's connection is still serviceable for
	// descriptor-free ops …
	if r := c2.roundTrip(t, "PING", false); !r.OK() {
		t.Fatalf("PING after BUSY: %+v", r)
	}
	if r := c2.roundTrip(t, "GET 0 5", false); r.Status != "NF" {
		t.Fatalf("GET after BUSY: %+v", r)
	}
	// … and the worker holding descriptors is unaffected.
	if r := c1.roundTrip(t, "PUT 0 5 500", false); !r.OK() {
		t.Fatalf("healthy worker PUT: %+v", r)
	}
	if r := c1.roundTrip(t, "MOVE 0 1 5 5", true); !r.OK() || r.Vals[0] != 500 {
		t.Fatalf("healthy worker MOVE: %+v", r)
	}

	var doc kvwire.Doc
	if err := json.Unmarshal([]byte(c1.roundTrip(t, "STATS", false).Raw), &doc); err != nil {
		t.Fatalf("STATS: %v", err)
	}
	if doc.Robust == nil || doc.Robust.Busy == 0 {
		t.Fatalf("robust counters missing the BUSY: %+v", doc.Robust)
	}
}

// TestServerTimeoutAfterDeadline: with a service deadline configured,
// persistent exhaustion is retried until the deadline and then
// answered TIMEOUT — still guaranteed unexecuted.
func TestServerTimeoutAfterDeadline(t *testing.T) {
	s := NewServer(Config{Tenants: 2, Workers: 2, Shards: 1, Buckets: 2,
		DescCapacity: 64, Deadline: 30 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Close()
	addr := ln.Addr().String()

	c1 := dial(t, addr)
	defer c1.conn.Close()
	if r := c1.roundTrip(t, "MOVE 0 1 99 99", false); r.Status != "FAIL" {
		t.Fatalf("carving MOVE: got %q, want FAIL", r.Status)
	}
	c2 := dial(t, addr)
	defer c2.conn.Close()
	start := time.Now()
	r := c2.roundTrip(t, "MOVE 0 1 99 99", false)
	if r.Status != "TIMEOUT" {
		t.Fatalf("starved worker with deadline: got %q, want TIMEOUT", r.Status)
	}
	if time.Since(start) < 30*time.Millisecond {
		t.Fatal("TIMEOUT answered before the deadline elapsed")
	}
	if r := c2.roundTrip(t, "PING", false); !r.OK() {
		t.Fatalf("PING after TIMEOUT: %+v", r)
	}
}

// TestServerSlowExemplarsAttributeStall is the tail-forensics
// acceptance check: under a kcas-publish stall rule, the SLOW verb's
// exemplars must attribute the slowest requests' latency to the
// execute stage (where the injected stall actually lives), carry the
// kcas publish deltas that did the work, and the per-stage histograms
// must reach both STATS and METRICS.
func TestServerSlowExemplarsAttributeStall(t *testing.T) {
	plan, err := repro.ParseFaultPlan([]string{"kcas-publish:stall=2ms:every=2"})
	if err != nil {
		t.Fatal(err)
	}
	// SpanTopK 8 < the stalled-request count, so the exemplar buffer
	// holds only genuinely stalled requests once traffic quiesces.
	s := NewServer(Config{Tenants: 2, Workers: 2, Shards: 1, Buckets: 2,
		Fault: plan, Metrics: true, Spans: true, SpanTopK: 8})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Close()

	cl := dial(t, ln.Addr().String())
	defer cl.conn.Close()
	const moves = 32
	for i := 0; i < moves; i++ {
		if r := cl.roundTrip(t, fmt.Sprintf("PUT 0 %d %d", i, 1000+i), false); !r.OK() {
			t.Fatalf("PUT %d: %+v", i, r)
		}
	}
	// Every second MOVE's descriptor publish stalls 2ms: execute-stage
	// time the span layer must attribute.
	for i := 0; i < moves; i++ {
		if r := cl.roundTrip(t, fmt.Sprintf("MOVE 0 1 %d %d", i, i), false); !r.OK() {
			t.Fatalf("MOVE %d: %+v", i, r)
		}
	}

	r := cl.roundTrip(t, "SLOW", false)
	if !r.OK() {
		t.Fatalf("SLOW: %+v", r)
	}
	var slow kvwire.SlowDoc
	if err := json.Unmarshal([]byte(r.Raw), &slow); err != nil {
		t.Fatalf("SLOW JSON: %v\n%s", err, r.Raw)
	}
	if len(slow.Exemplars) == 0 {
		t.Fatal("SLOW returned no exemplars despite stalled traffic")
	}
	execDominant, published := 0, 0
	for _, sp := range slow.Exemplars {
		if sp.Req == 0 || sp.Op == "" || sp.WallNS <= 0 {
			t.Fatalf("malformed exemplar %+v", sp)
		}
		var sum int64
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			if sp.Stage[st] < 0 {
				t.Fatalf("exemplar req=%d: negative %s stage", sp.Req, st)
			}
			sum += sp.Stage[st]
		}
		if sum > sp.WallNS+int64(time.Millisecond) {
			t.Fatalf("exemplar req=%d: stage sum %d exceeds wall %d", sp.Req, sum, sp.WallNS)
		}
		if sp.Dominant() == obs.StageExec {
			execDominant++
		}
		if sp.Publishes > 0 {
			published++
		}
	}
	if 2*execDominant <= len(slow.Exemplars) {
		t.Fatalf("only %d/%d exemplars attribute their latency to the execute stage",
			execDominant, len(slow.Exemplars))
	}
	if published == 0 {
		t.Fatal("no exemplar carries a kcas publish delta despite MOVE traffic")
	}

	// The per-stage histograms surface in STATS …
	var doc kvwire.Doc
	if err := json.Unmarshal([]byte(cl.roundTrip(t, "STATS", false).Raw), &doc); err != nil {
		t.Fatalf("STATS: %v", err)
	}
	if len(doc.Stages) != int(obs.NumStages) {
		t.Fatalf("STATS has %d stage rows, want %d: %+v", len(doc.Stages), obs.NumStages, doc.Stages)
	}
	var execRow *kvwire.StageRow
	for i := range doc.Stages {
		if doc.Stages[i].Stage == "execute" {
			execRow = &doc.Stages[i]
		}
	}
	if execRow == nil || execRow.Count == 0 || execRow.MaxNS < int64(time.Millisecond) {
		t.Fatalf("execute stage row does not reflect the stall: %+v", execRow)
	}

	// … and in METRICS (multi-line, framed by "# EOF"), alongside the
	// uptime and build-info series.
	if _, err := fmt.Fprintln(cl.conn, "METRICS"); err != nil {
		t.Fatal(err)
	}
	var metrics strings.Builder
	for cl.in.Scan() {
		metrics.WriteString(cl.in.Text())
		metrics.WriteByte('\n')
		if cl.in.Text() == "# EOF" {
			break
		}
	}
	for _, want := range []string{
		"stage_execute_count_total", "stage_execute_p99_ns", "stage_queue_max_ns",
		"spans_dropped_total", "uptime_seconds", "build_info{", "gomaxprocs=",
	} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("METRICS missing %q", want)
		}
	}
}

// TestServerGracefulDrain exercises the SIGTERM path in-process: after
// Drain the final STATS report is marked drained, the audit totals
// (taken on the retained setup thread) match what clients were told,
// and no new connections are accepted.
func TestServerGracefulDrain(t *testing.T) {
	s := NewServer(Config{Tenants: 2, Workers: 2, Shards: 1, Buckets: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	addr := ln.Addr().String()

	cl := dial(t, addr)
	defer cl.conn.Close()
	var sum uint64
	for i := uint64(1); i <= 5; i++ {
		v := 1000 + i
		if r := cl.roundTrip(t, fmt.Sprintf("PUT 0 %d %d", i, v), false); !r.OK() {
			t.Fatalf("PUT %d: %+v", i, r)
		}
		sum += v
	}
	if r := cl.roundTrip(t, "MOVE 0 1 3 3", true); !r.OK() {
		t.Fatalf("MOVE: %+v", r)
	}

	s.Drain()

	doc := s.Stats()
	if doc.Robust == nil || !doc.Robust.Drained {
		t.Fatalf("final stats not marked drained: %+v", doc.Robust)
	}
	mapN, mapSum, queueN := s.Audit(s.SetupThread())
	if mapN != 5 || mapSum != sum || queueN != 0 {
		t.Fatalf("post-drain audit %d/%d/%d, want 5/%d/0", mapN, mapSum, queueN, sum)
	}
	if _, err := net.Dial("tcp", addr); err == nil {
		t.Fatal("drained server accepted a new connection")
	}
}
