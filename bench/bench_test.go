package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestMain lets the test binary serve as the cold.translate child
// process, exactly as the benchmark binary does.
func TestMain(m *testing.M) {
	if runChildIfAsked() {
		return
	}
	os.Exit(m.Run())
}

// allSources renders what the generators produce for a seed, one string
// per workload input set (single programs can coincide across seeds: a
// ping-pong node that is not core 0 has no seeded constant in it).
func allSources(seed int64) []string {
	join := func(ps []program) string {
		var sb strings.Builder
		for _, p := range ps {
			sb.WriteString(p.source)
		}
		return sb.String()
	}
	out := []string{
		join(hotKernels(seed, smokeSizes)),
		join(coldPrograms(seed, smokeSizes)),
		join(genShardedSieve(seed, fullSizes, socCores).cores),
		join(genPingPong(seed, smokeSizes, socCores).cores),
	}
	schedule, prior := serveSchedule(seed, smokeSizes)
	var sb strings.Builder
	for _, b := range append(schedule, prior...) {
		sb.WriteString(b.tenant + " ")
	}
	return append(out, sb.String())
}

func TestGeneratorsAreSeeded(t *testing.T) {
	a, again, b := allSources(7), allSources(7), allSources(8)
	if !reflect.DeepEqual(a, again) {
		t.Fatal("the same seed generated different inputs")
	}
	for i := range a {
		if a[i] == b[i] {
			t.Errorf("input %d is the same for seeds 7 and 8:\n%.200s", i, a[i])
		}
	}
}

// Every seed must do the same amount of work, or metrics of runs with
// different seeds could not be compared.
func TestSeedsKeepTheWorkConstant(t *testing.T) {
	count := func(seed int64) (tenants map[string]int, batches int) {
		schedule, _ := serveSchedule(seed, fullSizes)
		tenants = map[string]int{}
		for _, b := range schedule {
			tenants[b.tenant[:3]]++ // "tNN": the rank
		}
		return tenants, len(schedule)
	}
	t1, n1 := count(1)
	t2, n2 := count(2)
	if n1 != fullSizes.serveBatches || n2 != n1 || len(t1) != fullSizes.serveTenants || !reflect.DeepEqual(t1, t2) {
		t.Errorf("schedules differ in shape: %d batches/%d tenants vs %d/%d", n1, len(t1), n2, len(t2))
	}
	for seed := int64(1); seed <= 3; seed++ {
		for i, p := range coldPrograms(seed, smokeSizes) {
			if q := coldPrograms(seed+10, smokeSizes)[i]; abs64(int64(strings.Count(p.source, "\n")-strings.Count(q.source, "\n"))) > 30 {
				t.Errorf("cold program %d changes size with the seed", i)
			}
		}
	}
}

func TestGoReferencesMatchISS(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, p := range append(hotKernels(seed, smokeSizes), coldPrograms(seed, smokeSizes)...) {
			if _, err := assembleAndReference(nil, p, 0); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		}
		for _, mp := range []multiProgram{genShardedSieve(seed, smokeSizes, socCores), genPingPong(seed, smokeSizes, socCores)} {
			sp := socProgram{name: mp.name}
			for _, p := range mp.cores {
				f, err := assembleOnly(p)
				if err != nil {
					t.Fatal(err)
				}
				sp.cores = append(sp.cores, &prepared{program: p, elf: f})
			}
			if _, _, err := runSoC(nil, &sp, true, false, 0); err != nil {
				t.Errorf("seed %d: all-ISS SoC: %v", seed, err)
			}
		}
	}
}

// A wrong Go reference must fail the check, not pass silently.
func TestWrongOutputIsCaught(t *testing.T) {
	p := genSieve(1, smokeSizes)
	p.expected = []uint32{p.expected[0] + 1}
	if _, err := assembleAndReference(nil, p, 0); err == nil {
		t.Fatal("a wrong expected output passed the reference check")
	}
	good := genSieve(1, smokeSizes)
	pp, err := prepare(nil, good, core.Level2, 0)
	if err != nil {
		t.Fatal(err)
	}
	pp.expected = []uint32{0}
	h := &hotInst{progs: []*prepared{pp}, ly: newLayers()}
	if rr, _ := h.round(nil); rr.failed != 1 {
		t.Fatalf("a wrong platform output counted %d failures, want 1", rr.failed)
	}
}

func smokeConfig(t *testing.T, workload string, trace bool) *config {
	return &config{workload: workload, seed: 3, seconds: 0.02, trace: trace, smoke: true, sz: smokeSizes, dir: t.TempDir(), procs: 2}
}

func TestSmokeEveryWorkload(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range workloadDefs {
		t.Run(def.name, func(t *testing.T) {
			cfg := smokeConfig(t, def.name, false)
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			out := res.output(cfg)
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Fatalf("untraced: correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
			}
			if len(out.Metrics) != len(spec.EndToEnd) {
				t.Errorf("untraced run reports %d metrics, BENCHMARK.json lists %d", len(out.Metrics), len(spec.EndToEnd))
			}
			for _, m := range spec.EndToEnd {
				if got, ok := out.Metrics[m.Name]; !ok || got.Value <= 0 || got.Unit != m.Unit {
					t.Errorf("end-to-end metric %s = %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}

			cfg = smokeConfig(t, def.name, true)
			traced, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tout := traced.output(cfg)
			if !tout.Correct {
				t.Fatalf("traced: correct=false (failed %d, digest mismatches %d)", tout.Failed, traced.mismatches)
			}
			if len(tout.Metrics) != len(spec.PerLayer) {
				t.Errorf("traced run reports %d metrics, BENCHMARK.json lists %d", len(tout.Metrics), len(spec.PerLayer))
			}
			for _, m := range spec.PerLayer {
				if got, ok := tout.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s = %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if traced.rounds[0].sim.digest != res.rounds[0].sim.digest {
				t.Error("traced and untraced runs of one seed disagree on sim_digest")
			}
			if got := tout.Metrics["trace.attributed_pct"].Value; got < 50 {
				t.Errorf("only %.1f%% of traced time is attributed to a layer", got)
			}
			path := filepath.Join(cfg.dir, "trace.json")
			if err := traced.tr.writeChrome(path); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			data, _ := os.ReadFile(path)
			if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
				t.Errorf("Chrome trace: %d events, err %v", len(doc.TraceEvents), err)
			}
			entries, _ := os.ReadDir(cfg.dir)
			if len(entries) != 1 {
				t.Errorf("the run left %d entries in its scratch directory, want only the trace", len(entries))
			}
		})
	}
}

func TestBenchmarkJSONListsWhatTheProgramHas(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, d := range workloadDefs {
		have = append(have, d.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, have)
	}
	var layer, haveLayer []layerMetric
	for _, m := range spec.PerLayer {
		layer = append(layer, layerMetric{m.Name, m.Unit})
	}
	haveLayer = append(haveLayer, layerMetrics...)
	if !reflect.DeepEqual(layer, haveLayer) {
		t.Errorf("per-layer metrics: BENCHMARK.json %v, program %v", layer, haveLayer)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// → [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; Python gives 3.5, 31.0", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, minst []float64, digest float64) string {
		path := filepath.Join(dir, name)
		for i, v := range minst {
			cfg := &config{workload: "hot.L2", seed: int64(i + 1), dir: dir}
			o := output{Correct: true, Attempted: 1, Metrics: map[string]metric{"src_minst_per_s": {v, "Minst/s"}}}
			if err := appendResult(path, cfg, o); err != nil {
				t.Fatal(err)
			}
			cfg.trace = true
			o.Metrics = map[string]metric{"sim_digest": {digest, "u48"}, "c6x.fuse_ms": {1, "ms"}}
			if err := appendResult(path, cfg, o); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	slower := []float64{50, 51, 49, 50, 52, 48, 50, 51, 49, 50}
	noisy := []float64{100, 140, 60, 100, 150, 50, 100, 130, 70, 100}
	a := write("a.jsonl", steady, 42)
	for _, c := range []struct {
		name, want string
		vals       []float64
		digest     float64
		fails      bool
	}{
		{"same.jsonl", "ok", steady, 42, false},
		{"slower.jsonl", "regressed", slower, 42, true},
		{"noisy.jsonl", "unresolved", noisy, 42, true},
		{"digest.jsonl", "differs on 10 of 10 seeds", steady, 43, true},
	} {
		var buf bytes.Buffer
		err := compareFiles("../BENCHMARK.json", a, write(c.name, c.vals, c.digest), &buf)
		if (err != nil) != c.fails || !strings.Contains(buf.String(), c.want) {
			t.Errorf("%s: err=%v, want failure=%v and %q in:\n%s", c.name, err, c.fails, c.want, buf.String())
		}
	}
}
