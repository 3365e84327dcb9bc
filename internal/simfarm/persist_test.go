// Persistent-cache tests live in the external test package for the same
// reason as the equivalence test: repro.Measure is the farm-free oracle.
package simfarm_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/simfarm"
	"repro/internal/simfarm/store"
	"repro/internal/workload"
)

// sweep returns a small but representative batch: two workloads at every
// level under every default march config.
func sweep(t *testing.T) []simfarm.Job {
	t.Helper()
	var ws []workload.Workload
	for _, name := range []string{"gcd", "sieve"} {
		w, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		ws = append(ws, w)
	}
	return simfarm.SweepJobs(ws, repro.AllLevels(), simfarm.DefaultMarchConfigs())
}

// assertNoFailures fails the test on the first failed job.
func assertNoFailures(t *testing.T, results []simfarm.Result) {
	t.Helper()
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s %s L%d: %v", r.Name, r.Config, int(r.Level), r.Err)
		}
	}
}

// TestFarmDiskStoreEquivalence is the cross-process story of the
// persistent store, compressed into one process: a cold farm populates a
// disk store, a completely fresh farm + store handle (what a second
// cabt-farm invocation sees) serves every translation from disk, and the
// warm results are bit-identical both to the cold run and to the direct
// repro.Measure path.
func TestFarmDiskStoreEquivalence(t *testing.T) {
	dir := t.TempDir()
	jobs := sweep(t)

	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold := simfarm.New(simfarm.Config{Workers: 4, Cache: simfarm.NewPersistentTranslationCache(st1)})
	coldResults, coldStats := cold.Run(jobs)
	assertNoFailures(t, coldResults)
	if coldStats.CacheMisses == 0 {
		t.Fatal("cold run reported no translations")
	}

	// "Second process": fresh store handle, fresh farm, same directory.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	warmCache := simfarm.NewPersistentTranslationCache(st2)
	warm := simfarm.New(simfarm.Config{Workers: 4, Cache: warmCache})
	warmResults, warmStats := warm.Run(jobs)
	assertNoFailures(t, warmResults)

	if warmStats.CacheMisses != 0 {
		t.Errorf("warm run re-translated %d programs", warmStats.CacheMisses)
	}
	if warmStats.CacheHitRate < 0.9 {
		t.Errorf("warm hit rate = %v, want >= 0.9", warmStats.CacheHitRate)
	}
	if warmCache.DiskHits() != coldStats.CacheMisses {
		t.Errorf("disk hits = %d, want one per cold translation (%d)",
			warmCache.DiskHits(), coldStats.CacheMisses)
	}

	for i := range warmResults {
		w, c := warmResults[i], coldResults[i]
		if w.Instructions != c.Instructions || w.BoardCycles != c.BoardCycles ||
			w.C6xCycles != c.C6xCycles || w.GeneratedCycles != c.GeneratedCycles ||
			w.CPI != c.CPI || w.MIPS != c.MIPS || w.DeviationPct != c.DeviationPct ||
			w.Seconds != c.Seconds {
			t.Errorf("%s %s L%d: warm result differs from cold", w.Name, w.Config, int(w.Level))
		}
	}

	// Against the oracle, for the default ("base") config only: those
	// jobs are exactly what repro.Measure computes.
	for _, r := range warmResults {
		if r.Config != "base" {
			continue
		}
		w, _ := workload.ByName(r.Name)
		m, err := repro.Measure(w, r.Level)
		if err != nil {
			t.Fatal(err)
		}
		lr := m.Levels[r.Level]
		if r.Instructions != m.Instructions || r.BoardCycles != m.BoardCycles ||
			r.C6xCycles != lr.C6xCycles || r.GeneratedCycles != lr.GeneratedCycles {
			t.Errorf("%s L%d: disk-store result differs from repro.Measure", r.Name, int(r.Level))
		}
	}
}

// TestFarmSurvivesStoreCorruption damages objects under a running farm's
// store between batches: the farm must re-translate and keep producing
// correct results, never crash.
func TestFarmSurvivesStoreCorruption(t *testing.T) {
	dir := t.TempDir()
	jobs := sweep(t)

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold := simfarm.New(simfarm.Config{Workers: 4, Cache: simfarm.NewPersistentTranslationCache(st)})
	coldResults, _ := cold.Run(jobs)
	assertNoFailures(t, coldResults)

	// Truncate every object on disk.
	damaged := 0
	err = filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		damaged++
		return os.Truncate(path, 13)
	})
	if err != nil {
		t.Fatal(err)
	}
	if damaged == 0 {
		t.Fatal("no objects written")
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm := simfarm.New(simfarm.Config{Workers: 4, Cache: simfarm.NewPersistentTranslationCache(st2)})
	warmResults, warmStats := warm.Run(jobs)
	assertNoFailures(t, warmResults)
	if warmStats.CacheMisses == 0 {
		t.Error("truncated store served hits")
	}
	if got := st2.Stats().Corrupt; got == 0 {
		t.Error("corruption went undetected")
	}
	for i := range warmResults {
		if warmResults[i].C6xCycles != coldResults[i].C6xCycles {
			t.Errorf("%s %s L%d: rebuilt result differs", warmResults[i].Name,
				warmResults[i].Config, int(warmResults[i].Level))
		}
	}
}

// TestAssemblyDeterminism guards the property the whole store rests on:
// the same source must produce a byte-identical ELF image (and therefore
// the same content address) in every process. The symbol table is the
// part that historically depended on map iteration order.
func TestAssemblyDeterminism(t *testing.T) {
	for _, w := range workload.All() {
		var first simfarm.ELFHash
		for i := 0; i < 4; i++ {
			f, err := repro.Assemble(w.Source)
			if err != nil {
				t.Fatal(err)
			}
			h, err := simfarm.HashELF(f)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = h
			} else if h != first {
				t.Fatalf("%s: assembly #%d hashed differently", w.Name, i)
			}
		}
	}
}
