package main

// Result files and their comparison. A result file is JSON lines: the
// object a run prints, plus the workload, seed and mode that produced
// it (-out appends one). -compare reads two such files and applies the
// bounds of BENCHMARK.json to every (end-to-end metric, workload) pair.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
)

// resultRow is one line of a result file.
type resultRow struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	NumCPU   int     `json:"num_cpu"`
	Procs    int     `json:"gomaxprocs"`
	Go       string  `json:"go"`
	FS       string  `json:"fs"`
	output
}

func appendResult(path string, cfg *config, o output) error {
	row := resultRow{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		NumCPU: runtime.NumCPU(), Procs: cfg.procs, Go: runtime.Version(), FS: fsType(cfg.dir),
		output: o,
	}
	line, err := json.Marshal(row)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readResults(path string) ([]resultRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []resultRow
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var row resultRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		rows = append(rows, row)
	}
	return rows, sc.Err()
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// exactMetrics are simulated statistics: two commits that differ only
// in speed must report the same value for the same seed.
var exactMetrics = []string{"cycle_err_pct", "failed_share", "sim_digest"}

// values collects a metric's value from every matching row, by seed order.
func values(rows []resultRow, workload, name string, trace bool) (vals []float64, bySeed map[int64]float64) {
	bySeed = map[int64]float64{}
	for _, r := range rows {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			vals = append(vals, m.Value)
			bySeed[r.Seed] = m.Value
		}
	}
	return vals, bySeed
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / m
}

// compareFiles prints one row per (metric, workload). b is judged
// against a: every ratio's base is a's median. It returns an error if
// any row is regressed, unresolved or differs.
func compareFiles(specPath, aPath, bPath string, w io.Writer) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	a, err := readResults(aPath)
	if err != nil {
		return err
	}
	b, err := readResults(bPath)
	if err != nil {
		return err
	}
	bad := 0
	fmt.Fprintf(w, "a = %s, b = %s; worse%% is b's median against a's (base: a), spread = (q3-q1)/median\n", aPath, bPath)
	fmt.Fprintf(w, "%-15s %-16s %4s %12s %8s %4s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "n_a", "median_a", "spread_a", "n_b", "median_b", "spread_b", "worse%", "bound%", "verdict")
	for _, wl := range spec.Workloads {
		for _, r := range append(a, b...) {
			if r.Workload == wl.Name && !r.Correct {
				fmt.Fprintf(w, "%-15s seed %d trace %v: correct=false (failed %d of %d)\n", wl.Name, r.Seed, r.Trace, r.Failed, r.Attempted)
				bad++
			}
		}
		for _, m := range spec.EndToEnd {
			va, _ := values(a, wl.Name, m.Name, false)
			vb, _ := values(b, wl.Name, m.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case max(spread(va), spread(vb)) > m.Bound:
				verdict = "unresolved"
				bad++
			case worse > m.Bound:
				verdict = "regressed"
				bad++
			}
			fmt.Fprintf(w, "%-15s %-16s %4d %12.4f %7.2f%% %4d %12.4f %7.2f%% %+7.2f%% %5.0f%%  %s\n",
				wl.Name, m.Name, len(va), ma, 100*spread(va), len(vb), mb, 100*spread(vb), 100*worse, 100*m.Bound, verdict)
		}
		for _, name := range exactMetrics {
			_, sa := values(a, wl.Name, name, true)
			_, sb := values(b, wl.Name, name, true)
			var seeds []int64
			for s := range sa {
				if _, ok := sb[s]; ok {
					seeds = append(seeds, s)
				}
			}
			if len(seeds) == 0 {
				continue
			}
			sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
			differ := 0
			for _, s := range seeds {
				if sa[s] != sb[s] {
					differ++
				}
			}
			verdict := "ok (equal on every shared seed)"
			if differ > 0 {
				verdict = fmt.Sprintf("differs on %d of %d seeds", differ, len(seeds))
				bad++
			}
			fmt.Fprintf(w, "%-15s %-16s %4d seeds, seed %d: a=%.6g b=%.6g  exact  %s\n",
				wl.Name, name, len(seeds), seeds[0], sa[seeds[0]], sb[seeds[0]], verdict)
		}
	}
	fmt.Fprintf(w, "\nper-layer medians (not gated; ratio = b/a, base: a)\n")
	for _, wl := range spec.Workloads {
		for _, m := range spec.PerLayer {
			va, _ := values(a, wl.Name, m.Name, true)
			vb, _ := values(b, wl.Name, m.Name, true)
			if len(va) == 0 || len(vb) == 0 || (median(va) == 0 && median(vb) == 0) || slices.Contains(exactMetrics, m.Name) {
				continue
			}
			ratio := "-"
			if median(va) != 0 {
				ratio = fmt.Sprintf("%.3f", median(vb)/median(va))
			}
			fmt.Fprintf(w, "%-15s %-30s %14.4f %14.4f %-8s ratio %s\n", wl.Name, m.Name, median(va), median(vb), m.Unit, ratio)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows regressed, unresolved, differing or incorrect", bad)
	}
	return nil
}
