package store_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simfarm/store"
)

// TestGCEnforcesBudget: a store grown past its budget by another writer
// (simulated by opening the same directory unbounded) is brought back
// under budget by an explicit GC — the case writes alone cannot fix.
func TestGCEnforcesBudget(t *testing.T) {
	dir := t.TempDir()
	p := prog(t)

	// Measure one object, then overfill the directory without a budget.
	probe := open(t, dir, store.Options{})
	mustStore(t, probe, key("a"), p)
	objSize := probe.Stats().Bytes
	mustStore(t, probe, key("b"), p)
	mustStore(t, probe, key("c"), p)
	mustStore(t, probe, key("d"), p)

	s := open(t, dir, store.Options{MaxBytes: 2 * objSize})
	res := s.GC(0)
	if res.Evicted != 2 {
		t.Fatalf("GC evicted %d objects, want 2 (%+v)", res.Evicted, res)
	}
	if res.Objects != 2 || res.Bytes > 2*objSize {
		t.Fatalf("store after GC: %+v", res)
	}
	if res.FreedBytes != 2*objSize {
		t.Fatalf("FreedBytes = %d, want %d", res.FreedBytes, 2*objSize)
	}
	if st := s.Stats(); st.Objects != 2 || st.Evictions != 2 {
		t.Fatalf("stats after GC: %+v", st)
	}
}

// TestGCMaxAge: the age rule evicts idle objects even within budget and
// spares recently used ones. The ages are set on the files, which GC
// reads back, so no sleep races the clock.
func TestGCMaxAge(t *testing.T) {
	dir := t.TempDir()
	p := prog(t)
	s := open(t, dir, store.Options{})
	mustStore(t, s, key("old"), p)
	mustStore(t, s, key("new"), p)
	setMtime(t, dir, key("old"), time.Now().Add(-time.Hour))
	setMtime(t, dir, key("new"), time.Now())

	res := s.GC(time.Minute)
	if res.Evicted != 1 || res.Objects != 1 {
		t.Fatalf("age GC: %+v", res)
	}
	if _, ok, _ := s.Load(key("old")); ok {
		t.Fatal("idle object survived age GC")
	}
	if _, ok, err := s.Load(key("new")); err != nil || !ok {
		t.Fatalf("fresh object evicted (ok=%v, err=%v)", ok, err)
	}

	// No budget, nothing stale: a sweep is a no-op.
	if res := s.GC(time.Hour); res.Evicted != 0 {
		t.Fatalf("no-op GC evicted %d objects", res.Evicted)
	}
}

// TestGCSeesExternalWriters: a sweep must cover objects another store
// handle wrote into the directory after this handle opened — writes
// alone only ever see the opener's own view.
func TestGCSeesExternalWriters(t *testing.T) {
	dir := t.TempDir()
	p := prog(t)

	s := open(t, dir, store.Options{})
	mustStore(t, s, key("mine"), p)

	other := open(t, dir, store.Options{}) // a sibling process
	mustStore(t, other, key("theirs-1"), p)
	mustStore(t, other, key("theirs-2"), p)

	res := s.GC(0)
	if res.Objects != 3 {
		t.Fatalf("GC sees %d objects, want 3 (externally written objects invisible)", res.Objects)
	}
	res = s.GC(time.Nanosecond)
	if res.Evicted != 3 || res.Objects != 0 {
		t.Fatalf("age sweep over the shared directory: %+v", res)
	}
	if _, ok, _ := other.Load(key("theirs-1")); ok {
		t.Fatal("externally written object survived the sweep")
	}
}

// TestSweeper: the background ticker garbage-collects without any
// explicit call, and stop is idempotent.
func TestSweeper(t *testing.T) {
	dir := t.TempDir()
	p := prog(t)
	s := open(t, dir, store.Options{})
	mustStore(t, s, key("idle"), p)

	stop := s.StartSweeper(5*time.Millisecond, time.Nanosecond)
	defer stop()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if st := s.Stats(); st.Objects == 0 && st.Evictions >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweeper never collected: %+v", s.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop()
	stop() // idempotent
}

// TestGCKeepsConcurrentPuts: a put that lands while a GC rescans the
// directory stays in the index. 400 puts from four writers race a GC(0)
// loop (no budget, no age rule: nothing is evicted). A completed put is
// never missing from Stats — checked after every put, since the next
// rescan would find a dropped object again — and Stats, read with no
// further GC, counts every object.
func TestGCKeepsConcurrentPuts(t *testing.T) {
	const puts, writers = 400, 4
	s := open(t, t.TempDir(), store.Options{})
	p := prog(t)
	done := make(chan struct{})
	swept := make(chan struct{})
	go func() {
		defer close(swept)
		for {
			select {
			case <-done:
				return
			default:
				s.GC(0)
			}
		}
	}()
	var completed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < puts; i += writers {
				if err := s.Store(key(fmt.Sprint("put-", i)), p); err != nil {
					t.Error(err)
					return
				}
				n := completed.Add(1)
				if got := s.Stats().Objects; int64(got) < n {
					t.Errorf("Stats.Objects = %d with %d puts completed", got, n)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	<-swept
	if st := s.Stats(); st.Objects != puts {
		t.Fatalf("Stats.Objects = %d after %d puts raced GC, want %d", st.Objects, puts, puts)
	}
}
