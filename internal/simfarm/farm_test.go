package simfarm

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// stripWall zeroes the host-timing fields, leaving only the
// deterministic simulation quantities.
func stripWall(rs []Result) []Result {
	out := append([]Result(nil), rs...)
	for i := range out {
		out[i].TranslateWallSeconds = 0
		out[i].RunWallSeconds = 0
		out[i].RefWallSeconds = 0
		out[i].SpeedupVsISS = 0
		// The first run of a batch misses where a warm farm hits, and
		// which job runs a shared reference first is a race; cache state
		// and counts are checked separately, not part of determinism.
		out[i].CacheHit = false
		out[i].counts = FarmStats{}
	}
	return out
}

func TestFarmDeterministicOrderingAndCycles(t *testing.T) {
	jobs := SweepJobs(workload.Six(), []core.Level{core.Level0, core.Level1, core.Level2, core.Level3}, nil)

	wide := New(Config{Workers: 8})
	r1, bs := wide.Run(jobs)
	if bs.Failed != 0 {
		for _, r := range r1 {
			if r.Err != nil {
				t.Fatalf("%s L%d: %v", r.Name, int(r.Level), r.Err)
			}
		}
	}
	for i, r := range r1 {
		if r.Index != i {
			t.Fatalf("result %d carries index %d", i, r.Index)
		}
		if r.Name != jobs[i].Workload.Name || r.Level != jobs[i].Options.Level {
			t.Fatalf("result %d is %s/L%d, want %s/L%d", i,
				r.Name, int(r.Level), jobs[i].Workload.Name, int(jobs[i].Options.Level))
		}
		if r.C6xCycles <= 0 || r.Instructions <= 0 {
			t.Fatalf("%s L%d: empty measurement", r.Name, int(r.Level))
		}
	}

	// A second farm with a different pool size must produce identical
	// simulation quantities in identical order.
	narrow := New(Config{Workers: 1})
	r2, _ := narrow.Run(jobs)
	a, b := stripWall(r1), stripWall(r2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d differs across pool sizes:\n  8 workers: %+v\n  1 worker:  %+v", i, a[i], b[i])
		}
	}
}

func TestFarmTranslationCacheReuse(t *testing.T) {
	f := New(Config{Workers: 4})
	levels := []core.Level{core.Level0, core.Level1, core.Level2, core.Level3}
	jobs := SweepJobs(workload.Six(), levels, DefaultMarchConfigs())

	results, bs := f.Run(jobs)
	if bs.Failed != 0 {
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("%s/%s L%d: %v", r.Name, r.Config, int(r.Level), r.Err)
			}
		}
	}
	// The configs differ only in I-cache geometry: levels 0–2 are
	// translated once and shared across all of them, Level3 is
	// translated per config. So misses = 6 workloads × (3 shared levels
	// + one Level3 per config), and every remaining job hits.
	nCfg := len(DefaultMarchConfigs())
	misses := int64(6 * (3 + nCfg))
	if bs.CacheMisses != misses {
		t.Errorf("CacheMisses = %d, want %d", bs.CacheMisses, misses)
	}
	if want := int64(len(jobs)) - misses; bs.CacheHits != want {
		t.Errorf("CacheHits = %d, want %d", bs.CacheHits, want)
	}
	if bs.CacheHitRate <= 0 {
		t.Errorf("CacheHitRate = %v, want > 0", bs.CacheHitRate)
	}

	// Shared programs must still produce per-config Level3 differences
	// (the tiny direct-mapped cache misses more) while levels < 3 agree
	// across configs.
	byKey := map[string]Result{}
	for _, r := range results {
		byKey[r.Config+"/"+r.Name+"/"+r.Level.String()] = r
	}
	for _, w := range workload.Six() {
		for _, l := range []core.Level{core.Level0, core.Level1, core.Level2} {
			base := byKey["base/"+w.Name+"/"+l.String()]
			for _, cfg := range []string{"icache-4k", "icache-64b-direct"} {
				alt := byKey[cfg+"/"+w.Name+"/"+l.String()]
				if alt.C6xCycles != base.C6xCycles || alt.GeneratedCycles != base.GeneratedCycles {
					t.Errorf("%s %s L%d: cycles differ from base below the cache level", cfg, w.Name, int(l))
				}
			}
		}
	}

	// Re-running the same batch on the warm farm is all hits.
	_, bs2 := f.Run(jobs)
	if bs2.CacheMisses != 0 {
		t.Errorf("warm re-run missed %d times", bs2.CacheMisses)
	}
	if bs2.CacheHits != int64(len(jobs)) {
		t.Errorf("warm re-run hits = %d, want %d", bs2.CacheHits, len(jobs))
	}

	st := f.Stats()
	if st.JobsRun != int64(2*len(jobs)) {
		t.Errorf("cumulative JobsRun = %d, want %d", st.JobsRun, 2*len(jobs))
	}
	if st.CachedPrograms != int(misses) {
		t.Errorf("CachedPrograms = %d, want %d", st.CachedPrograms, misses)
	}
}

func TestFarmSubmitStreams(t *testing.T) {
	f := New(Config{Workers: 2})
	jobs := SweepJobs([]workload.Workload{mustWorkload(t, "gcd"), mustWorkload(t, "fir")},
		[]core.Level{core.Level1}, nil)
	seen := map[int]bool{}
	for r := range f.Submit(jobs) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		if seen[r.Index] {
			t.Fatalf("index %d delivered twice", r.Index)
		}
		seen[r.Index] = true
	}
	if len(seen) != len(jobs) {
		t.Fatalf("streamed %d results, want %d", len(seen), len(jobs))
	}
}

func TestFarmJobErrorIsolation(t *testing.T) {
	bad := workload.Workload{
		Name:     "bad",
		Source:   "\t.text\n\t.global _start\n_start:\tnot_an_instruction d0\n",
		Expected: nil,
	}
	jobs := []Job{
		{Workload: mustWorkload(t, "gcd"), Options: core.Options{Level: core.Level1}},
		{Workload: bad, Options: core.Options{Level: core.Level1}},
		{Workload: mustWorkload(t, "sieve"), Options: core.Options{Level: core.Level1}},
	}
	f := New(Config{Workers: 3})
	results, bs := f.Run(jobs)
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("healthy jobs failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Fatal("broken workload did not fail")
	}
	if results[1].Error == "" || !strings.Contains(results[1].Error, "bad") {
		t.Errorf("Error = %q, want the workload name in the message", results[1].Error)
	}
	if bs.Failed != 1 {
		t.Errorf("Failed = %d, want 1", bs.Failed)
	}
}

func TestFarmWrongExpectedOutputFails(t *testing.T) {
	w := mustWorkload(t, "gcd")
	w.Expected = append([]uint32{0xdeadbeef}, w.Expected[1:]...)
	f := New(Config{Workers: 1})
	results, _ := f.Run([]Job{{Workload: w, Options: core.Options{Level: core.Level1}}})
	if results[0].Err == nil {
		t.Fatal("functional mismatch went undetected")
	}
}

func mustWorkload(t *testing.T, name string) workload.Workload {
	t.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	return w
}
