package repro

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/rtlsim"
	"repro/internal/simfarm"
	"repro/internal/workload"
)

// Figure5Row is one benchmark of the paper's Figure 5 (comparison of
// speed): native MIPS of the emulated core on the board and at each
// translation detail level.
type Figure5Row struct {
	Name      string
	BoardMIPS float64
	MIPS      map[Level]float64
}

// Figure5 regenerates the paper's Figure 5 over the six benchmarks. Like
// the tables it runs as one batch on the shared simulation farm and
// aggregates the sweep per workload, so repeated figure regeneration
// reuses the content-addressed translation cache.
func Figure5() ([]Figure5Row, error) {
	jobs := simfarm.SweepJobs(SixWorkloads(), AllLevels(), nil)
	results, _ := sharedFarm.Run(jobs)
	aggs, err := simfarm.AggregateByWorkload(results)
	if err != nil {
		return nil, err
	}
	var rows []Figure5Row
	for _, a := range aggs {
		row := Figure5Row{Name: a.Name, BoardMIPS: a.Board.BoardMIPS, MIPS: map[Level]float64{}}
		for l, r := range a.ByLevel {
			row.MIPS[l] = r.MIPS
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table1 is the paper's Table 1: mean clock cycles per executed TriCore
// instruction, per configuration.
type Table1 struct {
	BoardCPI float64            // paper: 1.08
	CPI      map[Level]float64  // paper: 2.94 / 4.28 / 5.87 / 35.34
	Paper    map[string]float64 // the published values for the report
}

// Table1Paper holds the published Table 1 values.
var Table1Paper = map[string]float64{
	"TC10GP Evaluation Board":       1.08,
	"C6x without cycle information": 2.94,
	"C6x with cycle information":    4.28,
	"C6x branch prediction":         5.87,
	"C6x caches":                    35.34,
}

// MeasureTable1 regenerates Table 1 (mean over the six benchmarks, as in
// the paper: "the average value of all examples"). The measurements run
// as a batch on the shared simulation farm — the same code path that
// serves sweep traffic — so repeated regeneration reuses the
// content-addressed translation cache.
func MeasureTable1() (*Table1, error) {
	t := &Table1{CPI: map[Level]float64{}, Paper: Table1Paper}
	jobs := simfarm.SweepJobs(SixWorkloads(), AllLevels(), nil)
	results, _ := sharedFarm.Run(jobs)
	boardCPI := map[string]float64{}
	for _, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		boardCPI[r.Name] = r.BoardCPI
		t.CPI[r.Level] += r.CPI
	}
	n := float64(len(boardCPI))
	for _, cpi := range boardCPI {
		t.BoardCPI += cpi
	}
	t.BoardCPI /= n
	for l := range t.CPI {
		t.CPI[l] /= n
	}
	return t, nil
}

// Figure6Row is one benchmark of the paper's Figure 6 (comparison of
// cycle accuracy): cycle counts and deviations per detail level.
type Figure6Row struct {
	Name        string
	BoardCycles int64
	Cycles      map[Level]int64
	Deviation   map[Level]float64 // percent vs board
}

// Figure6 regenerates the paper's Figure 6 over the six benchmarks,
// through the shared farm like Figure5.
func Figure6() ([]Figure6Row, error) {
	jobs := simfarm.SweepJobs(SixWorkloads(), []Level{Level1, Level2, Level3}, nil)
	results, _ := sharedFarm.Run(jobs)
	aggs, err := simfarm.AggregateByWorkload(results)
	if err != nil {
		return nil, err
	}
	var rows []Figure6Row
	for _, a := range aggs {
		row := Figure6Row{
			Name:        a.Name,
			BoardCycles: a.Board.BoardCycles,
			Cycles:      map[Level]int64{},
			Deviation:   map[Level]float64{},
		}
		for l, r := range a.ByLevel {
			row.Cycles[l] = r.GeneratedCycles
			row.Deviation[l] = r.DeviationPct
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table2Row is one program of the paper's Table 2 (software runtime
// comparison): gcd, fibonacci, sieve.
type Table2Row struct {
	Name         string
	Instructions int64
	// PaperInstructions is the count published in Table 2.
	PaperInstructions int64
	// RTLSimSeconds is the measured host wall time of the RT-level proxy
	// simulation (the paper's "Simulation (Workstation)" row; our host is
	// decades faster than a 2005 workstation, so only ratios compare).
	RTLSimSeconds float64
	RTLSimCycles  int64
	// EmulationSeconds is the modeled full-core FPGA emulation time:
	// board cycles at 8 MHz.
	EmulationSeconds float64
	// TranslationSeconds is the modeled platform time per detail level:
	// C6x cycles at 200 MHz.
	TranslationSeconds map[Level]float64
}

// MeasureTable2 regenerates Table 2 for gcd, fibonacci and sieve. Like
// MeasureTable1 it executes the translated runs as one batch on the
// shared simulation farm; only the RT-level proxy timing stays a direct
// host measurement.
func MeasureTable2() ([]Table2Row, error) {
	names := []string{"gcd", "fibonacci", "sieve"}
	ws := make([]workload.Workload, len(names))
	for i, name := range names {
		w, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("workload %s missing", name)
		}
		ws[i] = w
	}
	jobs := simfarm.SweepJobs(ws, []Level{Level1, Level2, Level3}, nil)
	results, _ := sharedFarm.Run(jobs)
	rowOf := map[string]*Table2Row{}
	rows := make([]Table2Row, len(names))
	for i, w := range ws {
		rows[i] = Table2Row{
			Name:               w.Name,
			PaperInstructions:  w.PaperInstructions,
			TranslationSeconds: map[Level]float64{},
		}
		rowOf[w.Name] = &rows[i]
	}
	for _, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		row := rowOf[r.Name]
		row.Instructions = r.Instructions
		row.EmulationSeconds = float64(r.BoardCycles) / FPGAClockHz
		row.TranslationSeconds[r.Level] = r.Seconds
	}
	// Measured host runtime of the RT-level proxy (reusing the farm's
	// memoized assembly).
	for i, w := range ws {
		f, err := sharedFarm.ELF(w)
		if err != nil {
			return nil, err
		}
		cpu, err := rtlsim.New(f)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cpu.Run(0); err != nil {
			return nil, err
		}
		rows[i].RTLSimSeconds = time.Since(start).Seconds()
		rows[i].RTLSimCycles = cpu.Cycle
	}
	return rows, nil
}

// FormatFigure5 renders Figure 5 as text.
func FormatFigure5(rows []Figure5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 — comparison of speed (million instructions per second)\n")
	fmt.Fprintf(&b, "%-10s %12s %14s %14s %14s %14s\n",
		"program", "TC10GP board", Level0, Level1, Level2, Level3)
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %12.1f %14.1f %14.1f %14.1f %14.1f\n",
			r.Name, r.BoardMIPS, r.MIPS[Level0], r.MIPS[Level1], r.MIPS[Level2], r.MIPS[Level3])
	}
	return b.String()
}

// FormatTable1 renders Table 1 with the published values alongside.
func FormatTable1(t *Table1) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 — clock cycles per TriCore instruction (mean of six benchmarks)\n")
	fmt.Fprintf(&b, "%-32s %10s %10s\n", "configuration", "measured", "paper")
	fmt.Fprintf(&b, "%-32s %10.2f %10.2f\n", "TC10GP Evaluation Board", t.BoardCPI, t.Paper["TC10GP Evaluation Board"])
	fmt.Fprintf(&b, "%-32s %10.2f %10.2f\n", "C6x without cycle information", t.CPI[Level0], t.Paper["C6x without cycle information"])
	fmt.Fprintf(&b, "%-32s %10.2f %10.2f\n", "C6x with cycle information", t.CPI[Level1], t.Paper["C6x with cycle information"])
	fmt.Fprintf(&b, "%-32s %10.2f %10.2f\n", "C6x branch prediction", t.CPI[Level2], t.Paper["C6x branch prediction"])
	fmt.Fprintf(&b, "%-32s %10.2f %10.2f\n", "C6x caches", t.CPI[Level3], t.Paper["C6x caches"])
	return b.String()
}

// FormatFigure6 renders Figure 6 as text.
func FormatFigure6(rows []Figure6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — comparison of cycle accuracy (cycles; deviation vs board)\n")
	fmt.Fprintf(&b, "%-10s %12s %22s %22s %22s\n", "program", "board", Level1, Level2, Level3)
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %12d %14d %+6.2f%% %14d %+6.2f%% %14d %+6.2f%%\n",
			r.Name, r.BoardCycles,
			r.Cycles[Level1], r.Deviation[Level1],
			r.Cycles[Level2], r.Deviation[Level2],
			r.Cycles[Level3], r.Deviation[Level3])
	}
	return b.String()
}

// FormatTable2 renders Table 2 as text.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2 — software runtime comparison\n")
	fmt.Fprintf(&b, "%-22s", "")
	for _, r := range rows {
		fmt.Fprintf(&b, " %14s", r.Name)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-22s", "# executed insts")
	for _, r := range rows {
		fmt.Fprintf(&b, " %14d", r.Instructions)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-22s", "  (paper)")
	for _, r := range rows {
		fmt.Fprintf(&b, " %14d", r.PaperInstructions)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-22s", "RTL sim (host wall)")
	for _, r := range rows {
		fmt.Fprintf(&b, " %14s", fmtDur(r.RTLSimSeconds))
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-22s", "Emulation (FPGA 8MHz)")
	for _, r := range rows {
		fmt.Fprintf(&b, " %14s", fmtDur(r.EmulationSeconds))
	}
	b.WriteString("\n")
	for _, l := range []Level{Level1, Level2, Level3} {
		fmt.Fprintf(&b, "%-22s", "Transl. "+shortLevel(l))
		for _, r := range rows {
			fmt.Fprintf(&b, " %14s", fmtDur(r.TranslationSeconds[l]))
		}
		b.WriteString("\n")
	}
	return b.String()
}

func shortLevel(l Level) string {
	switch l {
	case Level0:
		return "plain"
	case Level1:
		return "C6x cycle"
	case Level2:
		return "C6x branch"
	case Level3:
		return "C6x cache"
	}
	return "?"
}

func fmtDur(s float64) string {
	switch {
	case s >= 1:
		return fmt.Sprintf("%.2f s", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.2f ms", s*1e3)
	default:
		return fmt.Sprintf("%.1f µs", s*1e6)
	}
}
