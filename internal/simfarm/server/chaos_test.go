package server_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/faultinject"
	"repro/internal/simfarm/dist"
	"repro/internal/simfarm/server"
	"repro/internal/simfarm/store"
)

// chaosCrash is the sentinel an injected crash panics with in-process:
// the fleet supervisor recovers it and boots a replacement worker,
// modelling a process supervisor restarting a worker that exited.
type chaosCrash struct{ point string }

// chaosSpec is the soak's fault profile: every network fault on the
// worker/store plane, every disk fault on the journal and store, and a
// deterministic worker crash on the 4th completion. The seed makes any
// failure replayable: the whole plan derives from it.
func chaosSpec(seed int64) string {
	return fmt.Sprintf("seed=%d;"+
		"net.delay:p=0.05,ms=2;net.request.drop:p=0.05;net.request.dup:p=0.04;"+
		"net.response.drop:p=0.05;net.response.truncate:p=0.04;"+
		"server.delay:p=0.05,ms=2;server.drop:p=0.05;server.err:p=0.05;"+
		"journal.sync.err:p=0.1;journal.append.torn:p=0.05;journal.write.enospc:p=0.03;"+
		"store.write.enospc:p=0.05;"+
		"worker.complete.crash:nth=4", seed)
}

// TestChaosSoak is the robustness capstone: a 16-job batch on a
// multi-worker farm under the full fault profile must finish with zero
// failed jobs and results bit-identical to both a fault-free run and
// repro.Measure. Every retry path earns its keep here at once —
// request/response loss, duplicated deliveries, injected 503s, torn
// journal writes, failed fsyncs, full disks and a worker crash between
// executing and reporting.
func TestChaosSoak(t *testing.T) {
	seed := int64(20260808)
	if s := os.Getenv("CABT_CHAOS_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CABT_CHAOS_SEED=%q: %v", s, err)
		}
		seed = n
	}
	// On any failure below, this line is how the run is reproduced.
	t.Logf("chaos seed %d (re-run with CABT_CHAOS_SEED=%d)", seed, seed)

	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, server.Config{
		Workers: 2, Store: st,
		Journal:  filepath.Join(t.TempDir(), "journal.cabt"),
		LeaseTTL: 2 * time.Second,
	})
	// Exactly cabt-serve's wiring: faults only on the worker control
	// plane and store protocol, so the tenant API stays byte-comparable.
	handler := faultinject.Middleware(s, func(r *http.Request) bool {
		return strings.HasPrefix(r.URL.Path, "/v1/workers/") || strings.HasPrefix(r.URL.Path, "/v1/store/")
	})
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	c := &client{t: t, base: ts.URL, tenant: "chaos", http: http.DefaultClient}

	req := server.SubmitRequest{
		Workloads: []string{"gcd", "sieve", "fir", "ellip"},
		Levels:    []int{0, 1, 2, 3},
	}

	// Fault-free oracle first, while the plan is disarmed: no workers
	// are up yet, so the in-process lessees run it — proven
	// bit-identical to remote workers by TestDistributedBatchMatchesLocal.
	oracle := c.submitAndWait(req)
	if oracle.Stats.Failed != 0 || len(oracle.Results) != 16 {
		t.Fatalf("fault-free oracle: %+v", oracle)
	}

	plan, err := faultinject.Parse(chaosSpec(seed))
	if err != nil {
		t.Fatal(err)
	}
	// An injected crash panics instead of exiting the test process; the
	// supervisor below treats it exactly like a worker process death.
	oldCrash := faultinject.CrashFn
	faultinject.CrashFn = func(point string) { panic(chaosCrash{point}) }
	faultinject.Activate(plan)
	t.Cleanup(func() {
		faultinject.Deactivate()
		faultinject.CrashFn = oldCrash
	})

	// A supervised fleet of three workers: each goroutine runs workers
	// back to back, replacing any that an injected crash takes down.
	ctx, cancel := context.WithCancel(context.Background())
	var crashes atomic.Int64
	var wg sync.WaitGroup
	runOnce := func(name string) (crashed bool) {
		defer func() {
			if r := recover(); r != nil {
				if cc, ok := r.(chaosCrash); ok {
					t.Logf("worker %s crashed at %s", name, cc.point)
					crashed = true
					return
				}
				panic(r)
			}
		}()
		w := dist.NewWorker(dist.WorkerConfig{
			Server: ts.URL, Name: name, Poll: 10 * time.Millisecond,
		})
		w.Run(ctx)
		return false
	}
	for i := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for gen := 0; ctx.Err() == nil; gen++ {
				if !runOnce(fmt.Sprintf("chaos-%d.%d", i, gen)) {
					return
				}
				crashes.Add(1)
			}
		}()
	}
	t.Cleanup(func() { cancel(); wg.Wait() })

	deadline := time.Now().Add(10 * time.Second)
	for metrics(t, ts.URL)["cabt_workers_live"] == "0" {
		if time.Now().After(deadline) {
			t.Fatal("no worker came up")
		}
		time.Sleep(10 * time.Millisecond)
	}

	chaos := c.submitAndWait(req)
	if chaos.Stats.Failed != 0 {
		t.Fatalf("seed %d: %d failed jobs under chaos: %+v", seed, chaos.Stats.Failed, chaos.Results)
	}
	if len(chaos.Results) != len(oracle.Results) {
		t.Fatalf("seed %d: %d results, want %d", seed, len(chaos.Results), len(oracle.Results))
	}
	for i, g := range chaos.Results {
		w := oracle.Results[i]
		// Everything the simulation measures must be bit-identical; only
		// cache-outcome bookkeeping may differ between the runs.
		if g.Name != w.Name || g.Level != w.Level || g.Config != w.Config ||
			g.Instructions != w.Instructions || g.BoardCycles != w.BoardCycles ||
			g.C6xCycles != w.C6xCycles || g.GeneratedCycles != w.GeneratedCycles ||
			g.CPI != w.CPI || g.MIPS != w.MIPS ||
			g.DeviationPct != w.DeviationPct || g.Seconds != w.Seconds {
			t.Errorf("seed %d: result %d differs under chaos:\n chaos  %+v\n oracle %+v", seed, i, g, w)
		}
	}
	// And the oracle itself is anchored to the reference measurement.
	for _, r := range chaos.Results {
		w, ok := repro.WorkloadByName(r.Name)
		if !ok {
			t.Fatalf("unknown workload %q", r.Name)
		}
		m, err := repro.Measure(w, r.Level)
		if err != nil {
			t.Fatal(err)
		}
		lr := m.Levels[r.Level]
		if r.Instructions != m.Instructions || r.BoardCycles != m.BoardCycles ||
			r.C6xCycles != lr.C6xCycles || r.GeneratedCycles != lr.GeneratedCycles {
			t.Errorf("seed %d: %s L%d differs from repro.Measure", seed, r.Name, int(r.Level))
		}
	}

	// The profile's deterministic crash must actually have happened (the
	// 4th completion attempt fires it), and the batch survived it.
	if crashes.Load() < 1 {
		t.Errorf("seed %d: no worker crash was injected", seed)
	}
	// Faults visibly fired and were counted.
	fired := false
	for name := range metrics(t, ts.URL) {
		if strings.HasPrefix(name, "cabt_faults_injected_total") {
			fired = true
			break
		}
	}
	if !fired {
		t.Errorf("seed %d: no cabt_faults_injected_total series in /v1/metrics", seed)
	}
}
