package main

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"sync"
	"testing"

	"repro/internal/kvwire"
	"repro/internal/latency"
)

// stubServer is a minimal in-process kvserver for the audit's sake: it
// serves GET/PUT/DEL/PUSH/POP and AUDIT over the wire protocol, from
// plain maps and slices behind one lock.
type stubServer struct {
	mu     sync.Mutex
	maps   []map[uint64]uint64
	queues [][]uint64
}

func startStub(t *testing.T, tenants int) string {
	t.Helper()
	s := &stubServer{maps: make([]map[uint64]uint64, tenants), queues: make([][]uint64, tenants)}
	for i := range s.maps {
		s.maps[i] = make(map[uint64]uint64)
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
					out.WriteString(s.answer(in.Text(), tenants) + "\n")
					if out.Flush() != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

func (s *stubServer) answer(line string, tenants int) string {
	req, err := kvwire.ParseRequest(line, tenants)
	if err != nil {
		return "ERR " + err.Error()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.maps[req.Tenant]
	switch req.Op {
	case kvwire.OpAudit:
		var n, sum, qn uint64
		for i := range s.maps {
			for _, v := range s.maps[i] {
				n++
				sum += v
			}
			qn += uint64(len(s.queues[i]))
		}
		return fmt.Sprintf("OK %d %d %d", n, sum, qn)
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
		delete(m, req.Keys[0])
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
	}
	return "ERR not served by the stub"
}

// TestAuditAgainstReusedServer runs kvload twice against one server.
// The second run starts from the first run's leftovers and deletes
// more than it inserts, so its totals shrink: audited on signed
// changes from its baseline it must still pass, with no count wrapped.
func TestAuditAgainstReusedServer(t *testing.T) {
	const tenants, conns = 2, 2
	addr := startStub(t, tenants)
	mixes := []string{"get=20,put=60,del=10,push=8,pop=2", "get=20,put=10,del=60,push=2,pop=8"}
	for run, mix := range mixes {
		w, err := parseMix(mix)
		if err != nil {
			t.Fatal(err)
		}
		g := &generator{
			addr: addr, conns: conns, rate: 1e6, total: 3000,
			tenants: tenants, keys: 64, weights: w, prefill: 16, seed: uint64(run + 1),
			rec: latency.NewRecorder(conns, tenants, int(kvwire.OpCount)),
		}
		if err := g.baseline(); err != nil {
			t.Fatal(err)
		}
		if err := g.run(); err != nil {
			t.Fatal(err)
		}
		a, err := g.audit()
		if err != nil {
			t.Fatal(err)
		}
		if !a.Pass {
			t.Fatalf("run %d: audit FAIL on a consistent server: %+v", run+1, a)
		}
		if run == 1 {
			if a.BaseMapCount == 0 {
				t.Fatal("second run saw an empty server: the reuse was not exercised")
			}
			if a.GotMapCount >= 0 {
				t.Fatalf("second run's map change is %+d; the del-heavy mix should shrink the maps", a.GotMapCount)
			}
		}
	}
}
