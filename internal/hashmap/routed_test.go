package hashmap

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// hookedMap wraps a Map so a test can act between the steps of a
// composition that runs through it: before calls to Insert (onInsert)
// or Remove (onRemove) of a given key.
type hookedMap struct {
	m        *Map
	onInsert func(key uint64)
	onRemove func(key uint64)
}

func (h *hookedMap) Insert(t *core.Thread, key, val uint64) bool {
	if h.onInsert != nil {
		h.onInsert(key)
	}
	return h.m.Insert(t, key, val)
}

func (h *hookedMap) Remove(t *core.Thread, key uint64) (uint64, bool) {
	if h.onRemove != nil {
		h.onRemove(key)
	}
	return h.m.Remove(t, key)
}

func (h *hookedMap) ObjectID() uint64 { return h.m.ObjectID() }

// distinctChainKeys returns n keys from base upward, no two in the same
// bucket chain of m.
func distinctChainKeys(m *Map, base uint64, n int) []uint64 {
	var out []uint64
	for k := base; len(out) < n; k++ {
		ok := true
		for _, o := range out {
			if m.SameChain(o, k) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, k)
		}
	}
	return out
}

// within fails the test if f does not return in time: the defects these
// tests pin down were hangs.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("%s: hung", what)
	}
}

// TestTransferIntoTableSealedMidChain: a two-key transfer whose first
// insert is still announced on the target table when the table is
// sealed under the second insert. The routed second insert must not
// wait for the first (its own chain's) announcement.
func TestTransferIntoTableSealedMidChain(t *testing.T) {
	rt := newRT(3)
	setup, mover, sealer := rt.RegisterThread(), rt.RegisterThread(), rt.RegisterThread()
	src := NewSharded(setup, 1, 64, 0)
	dst := NewSharded(setup, 1, 64, 0)
	sk := distinctChainKeys(src, 1, 2)
	tk := distinctChainKeys(dst, 100, 2)
	for _, k := range sk {
		src.Insert(setup, k, k*10)
	}
	hd := &hookedMap{m: dst, onInsert: func(key uint64) {
		if key == tk[1] {
			dst.Grow(sealer)
		}
	}}
	var ok bool
	within(t, "TransferN into a table sealed between its inserts", func() {
		ok = mover.TransferN(src, hd, sk, tk, make([]uint64, 2))
	})
	if !ok {
		t.Fatal("transfer failed; both source keys were present and both target keys absent")
	}
	dst.Quiesce(setup)
	for i, k := range tk {
		if v, found := dst.Contains(setup, k); !found || v != sk[i]*10 {
			t.Fatalf("target key %d: found=%v value=%d", k, found, v)
		}
	}
	if src.Len(setup) != 0 || dst.Len(setup) != 2 {
		t.Fatalf("src holds %d, dst %d; want 0 and 2", src.Len(setup), dst.Len(setup))
	}
}

// TestTransfersHoldingAnnouncementsDoNotWaitOnEachOther: chain B holds
// an announcement on the target table and is stalled; chain A holds
// one too when the table is sealed under its second insert. If A
// waited for B's announcement it would never return (B in turn would
// wait for A's in real runs). A must instead drop its own
// announcement and restart its chain; once it has, B is released, and
// both transfers complete.
func TestTransfersHoldingAnnouncementsDoNotWaitOnEachOther(t *testing.T) {
	rt := newRT(4)
	setup, ta, tb, sealer := rt.RegisterThread(), rt.RegisterThread(), rt.RegisterThread(), rt.RegisterThread()
	src := NewSharded(setup, 1, 64, 0)
	dst := NewSharded(setup, 1, 64, 0)
	sk := distinctChainKeys(src, 1, 4)
	tk := distinctChainKeys(dst, 100, 4)
	for _, k := range sk {
		src.Insert(setup, k, k*10)
	}

	// B stalls before its second remove, with its first insert
	// announced on dst's table.
	holding, release := make(chan struct{}), make(chan struct{})
	var holdOnce sync.Once
	hb := &hookedMap{m: src, onRemove: func(key uint64) {
		if key == sk[3] {
			holdOnce.Do(func() { close(holding); <-release })
		}
	}}
	var okB bool
	doneB := make(chan struct{})
	go func() {
		defer close(doneB)
		okB = tb.TransferN(hb, dst, sk[2:], tk[2:], make([]uint64, 2))
	}()
	<-holding

	// A seals the table under its second insert, then releases B once
	// its first insert runs a second time — the chain restarted.
	firstInserts := 0
	var releaseOnce sync.Once
	ha := &hookedMap{m: dst, onInsert: func(key uint64) {
		switch key {
		case tk[0]:
			if firstInserts++; firstInserts == 2 {
				releaseOnce.Do(func() { close(release) })
			}
		case tk[1]:
			dst.Grow(sealer)
		}
	}}
	var okA bool
	within(t, "TransferN while another chain holds an announcement", func() {
		okA = ta.TransferN(src, ha, sk[:2], tk[:2], make([]uint64, 2))
	})
	within(t, "the stalled chain after its release", func() { <-doneB })
	if !okA || !okB {
		t.Fatalf("transfers A=%v B=%v; all keys were available", okA, okB)
	}
	dst.Quiesce(setup)
	if src.Len(setup) != 0 || dst.Len(setup) != 4 {
		t.Fatalf("src holds %d, dst %d; want 0 and 4", src.Len(setup), dst.Len(setup))
	}
	for i, k := range tk {
		if v, found := dst.Contains(setup, k); !found || v != sk[i]*10 {
			t.Fatalf("target key %d: found=%v value=%d", k, found, v)
		}
	}
}
