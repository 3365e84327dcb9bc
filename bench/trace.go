package main

// Span recorder of the traced run. The benchmark wraps its own calls
// into each layer of the repo (tc32asm, iss, core, c6x, platform, soc,
// simfarm, store, dist, server); nothing inside those packages is
// instrumented. Spans stay in memory and are written as one Chrome
// trace file when the run ends.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Layer names: one per package boundary the benchmark calls across.
// layerBench is the benchmark's own time (generators, reference
// implementations, checks) and whatever a span's children do not cover.
const (
	layerBench    = "bench"
	layerAsm      = "tc32asm"
	layerISS      = "iss"
	layerCore     = "core"
	layerC6xBuild = "c6x.compile+fuse"
	layerPlatNew  = "platform.new"
	layerRun      = "c6x+platform.run"
	layerSoCNew   = "soc.new"
	layerSoCRun   = "soc.run"
	layerFarm     = "simfarm"
	layerStore    = "store"
	layerDist     = "dist"
	layerServer   = "server"
	// layerIdle marks a goroutine waiting for work traced elsewhere (the
	// main goroutine while clients run, the parent while a child process
	// runs); it counts neither as a layer's time nor towards the total.
	layerIdle = "(waiting)"
)

type span struct {
	Layer  string
	Name   string
	Track  int
	Job    int
	ID     int
	Parent int // span ID, -1 for a root
	Start  time.Duration
	End    time.Duration
	self   time.Duration
}

// tracer collects spans. A nil *tracer records nothing, so untraced
// runs execute the same code with one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// track is one goroutine's span stack; tracks never share a goroutine,
// so parent links need no lock.
type track struct {
	tr    *tracer
	id    int
	stack []int
}

func (tr *tracer) track(id int) *track {
	if tr == nil {
		return nil
	}
	return &track{tr: tr, id: id}
}

// begin opens a span and returns the function that closes it.
func (tk *track) begin(layer, name string, job int) func() {
	if tk == nil {
		return func() {}
	}
	tr := tk.tr
	parent := -1
	if n := len(tk.stack); n > 0 {
		parent = tk.stack[n-1]
	}
	tr.mu.Lock()
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{Layer: layer, Name: name, Track: tk.id, Job: job, ID: id, Parent: parent})
	tr.mu.Unlock()
	tk.stack = append(tk.stack, id)
	start := time.Since(tr.t0)
	return func() {
		end := time.Since(tr.t0)
		tk.stack = tk.stack[:len(tk.stack)-1]
		tr.mu.Lock()
		tr.spans[id].Start, tr.spans[id].End = start, end
		tr.mu.Unlock()
	}
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Layer string
	Self  time.Duration
	Spans int
}

// selfTimes charges every span's duration minus its children's to the
// span's layer. attributed is the share of all root-span time that ends
// up in a layer other than the benchmark's own.
func (tr *tracer) selfTimes() (rows []layerTime, attributed float64) {
	if tr == nil {
		return nil, 0
	}
	for i := range tr.spans {
		tr.spans[i].self = tr.spans[i].End - tr.spans[i].Start
	}
	var total time.Duration
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			tr.spans[s.Parent].self -= s.End - s.Start
		} else {
			total += s.End - s.Start
		}
		if s.Layer == layerIdle {
			total -= s.End - s.Start
		}
	}
	by := map[string]*layerTime{}
	for _, s := range tr.spans {
		if s.Layer == layerIdle {
			continue
		}
		lt := by[s.Layer]
		if lt == nil {
			lt = &layerTime{Layer: s.Layer}
			by[s.Layer] = lt
		}
		lt.Self += s.self
		lt.Spans++
	}
	for _, lt := range by {
		rows = append(rows, *lt)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Self > rows[j].Self })
	if total > 0 {
		var bench time.Duration
		if lt := by[layerBench]; lt != nil {
			bench = lt.Self
		}
		attributed = 100 * float64(total-bench) / float64(total)
	}
	return rows, attributed
}

func (tr *tracer) printSelfTimes(w io.Writer) {
	rows, attributed := tr.selfTimes()
	var total time.Duration
	for _, r := range rows {
		total += r.Self
	}
	fmt.Fprintf(w, "self time per layer (traced part of the run, %.1f%% attributed to repo layers):\n", attributed)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-18s %10.3f ms %6.1f%%  %6d spans\n", r.Layer, ms(r.Self), 100*float64(r.Self)/float64(total), r.Spans)
	}
}

// writeChrome writes the spans in Chrome trace_event format (load in
// chrome://tracing or Perfetto).
func (tr *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(tr.spans))
	for i, s := range tr.spans {
		events[i] = event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			TS: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.Track,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "job": s.Job},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
