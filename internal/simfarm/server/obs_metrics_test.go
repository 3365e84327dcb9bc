package server_test

import (
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/simfarm/dist"
	"repro/internal/simfarm/server"
	"repro/internal/simfarm/store"
	"repro/internal/tc32asm"
	"repro/internal/workload"
)

// promScrape fetches /v1/metrics and parses it as strict Prometheus
// text exposition (0.0.4): every sample line must belong to a family
// declared by a preceding # TYPE, names and labels must be well-formed,
// and histogram families must expose cumulative buckets whose +Inf
// bucket equals _count. The round trip is the test: anything the
// registry emits that a Prometheus scraper would reject fails here.
type promDump struct {
	types map[string]string  // family -> counter|gauge|histogram
	vals  map[string]float64 // "name{labels}" (labels as rendered) -> value
}

var (
	promNameRe   = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9].*|\+Inf|NaN)$`)
	promLabelRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"$`)
)

// histFamily maps a histogram sample name back to its base family.
func histFamily(name string, types map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name && types[base] == "histogram" {
			return base
		}
	}
	return name
}

func promScrape(t *testing.T, base string) promDump {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics Content-Type = %q, want the 0.0.4 text exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	d := promDump{types: map[string]string{}, vals: map[string]float64{}}
	for _, ln := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		switch {
		case strings.HasPrefix(ln, "# HELP "):
			rest := strings.TrimPrefix(ln, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || !promNameRe.MatchString(name) {
				t.Fatalf("bad HELP line %q", ln)
			}
		case strings.HasPrefix(ln, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(ln, "# TYPE "))
			if len(fields) != 2 || !promNameRe.MatchString(fields[0]) {
				t.Fatalf("bad TYPE line %q", ln)
			}
			typ := fields[1]
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Fatalf("unknown metric type in %q", ln)
			}
			if prev, dup := d.types[fields[0]]; dup {
				t.Fatalf("family %s declared twice (%s then %s): registries overlap", fields[0], prev, typ)
			}
			d.types[fields[0]] = typ
		case strings.HasPrefix(ln, "#"):
			t.Fatalf("unparseable comment line %q", ln)
		default:
			m := promSampleRe.FindStringSubmatch(ln)
			if m == nil {
				t.Fatalf("unparseable sample line %q", ln)
			}
			name, labels, valStr := m[1], m[2], m[3]
			if labels != "" {
				for _, l := range strings.Split(labels[1:len(labels)-1], ",") {
					if !promLabelRe.MatchString(l) {
						t.Fatalf("bad label %q in line %q", l, ln)
					}
				}
			}
			fam := histFamily(name, d.types)
			typ, declared := d.types[fam]
			if !declared {
				t.Fatalf("sample %q has no preceding # TYPE", ln)
			}
			if typ == "histogram" && fam == name {
				t.Fatalf("histogram family %s exposes a bare sample %q", fam, ln)
			}
			v, err := strconv.ParseFloat(valStr, 64)
			if err != nil {
				t.Fatalf("bad value in %q: %v", ln, err)
			}
			key := name + labels
			if _, dup := d.vals[key]; dup {
				t.Fatalf("duplicate series %q", key)
			}
			d.vals[key] = v
		}
	}
	d.checkHistograms(t)
	return d
}

// checkHistograms verifies every histogram label-set is cumulative and
// coherent: non-decreasing buckets, +Inf bucket present and equal to
// _count.
func (d promDump) checkHistograms(t *testing.T) {
	t.Helper()
	type hkey struct{ series string } // _bucket series minus the le label
	buckets := map[string][]struct {
		le string
		v  float64
	}{}
	leRe := regexp.MustCompile(`le="([^"]*)",?`)
	for key, v := range d.vals {
		name, labels, _ := strings.Cut(key, "{")
		if !strings.HasSuffix(name, "_bucket") || d.types[histFamily(name, d.types)] != "histogram" {
			continue
		}
		le := leRe.FindStringSubmatch(labels)
		if le == nil {
			t.Fatalf("bucket series %q has no le label", key)
		}
		rest := strings.Trim(leRe.ReplaceAllString(labels, ""), "{},")
		id := strings.TrimSuffix(name, "_bucket") + "{" + rest + "}"
		buckets[id] = append(buckets[id], struct {
			le string
			v  float64
		}{le[1], v})
	}
	for id, bs := range buckets {
		sort.Slice(bs, func(i, j int) bool { return leFloat(bs[i].le) < leFloat(bs[j].le) })
		var prev float64
		var haveInf bool
		var infV float64
		for _, b := range bs {
			if b.v < prev {
				t.Errorf("%s: bucket le=%s value %g below previous %g (not cumulative)", id, b.le, b.v, prev)
			}
			prev = b.v
			if b.le == "+Inf" {
				haveInf, infV = true, b.v
			}
		}
		if !haveInf {
			t.Errorf("%s: no +Inf bucket", id)
			continue
		}
		base, rest, _ := strings.Cut(id, "{")
		rest = strings.TrimSuffix(rest, "}")
		countKey := base + "_count"
		if rest != "" {
			countKey += "{" + rest + "}"
		}
		if c, ok := d.vals[countKey]; !ok {
			t.Errorf("%s: missing %s", id, countKey)
		} else if c != infV {
			t.Errorf("%s: +Inf bucket %g != count %g", id, infV, c)
		}
	}
}

func leFloat(s string) float64 {
	if s == "+Inf" {
		return 1e308
	}
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

// val returns a series value, failing the test when the series is
// absent — exact-count assertions must not silently read zero.
func (d promDump) val(t *testing.T, key string) float64 {
	t.Helper()
	v, ok := d.vals[key]
	if !ok {
		t.Fatalf("metrics have no series %q", key)
	}
	return v
}

// delta is the change in a series between two scrapes (0 when absent in
// both — process-global families may not exist before first use).
func delta(after, before promDump, key string) float64 {
	return after.vals[key] - before.vals[key]
}

// TestMetricsPrometheusRoundTrip scrapes a store-backed server after
// one in-process batch and requires the exposition to parse strictly,
// with every legacy series still present under its original name and a
// sensible type.
func TestMetricsPrometheusRoundTrip(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts, mk := distServer(t, server.Config{Workers: 2, Store: st})

	mk("").submitAndWait(server.SubmitRequest{Workloads: []string{"gcd"}, Levels: []int{0, 1}})
	d := promScrape(t, ts.URL)

	wantType := map[string]string{
		"cabt_up":                         "gauge",
		"cabt_uptime_seconds":             "gauge",
		"cabt_draining":                   "gauge",
		"cabt_tenants":                    "gauge",
		"cabt_jobs_submitted_total":       "counter",
		"cabt_jobs_running":               "gauge",
		"cabt_jobs_done":                  "gauge",
		"cabt_jobs_failed":                "gauge",
		"cabt_rate_limited_total":         "counter",
		"cabt_queue_pending":              "gauge",
		"cabt_queue_leased":               "gauge",
		"cabt_queue_enqueued_total":       "counter",
		"cabt_queue_completed_total":      "counter",
		"cabt_queue_lease_expiries_total": "counter",
		"cabt_queue_retries_total":        "counter",
		"cabt_workers_live":               "gauge",
		"cabt_store_objects":              "gauge",
		"cabt_store_bytes":                "gauge",
		"cabt_store_loads_total":          "counter",
		"cabt_store_puts_total":           "counter",
		"cabt_store_remote_gets_total":    "counter",
		// Process-global instrumentation, populated by the batch above.
		"cabt_farm_jobs_total":      "counter",
		"cabt_farm_stage_seconds":   "histogram",
		"cabt_cache_requests_total": "counter",
	}
	for fam, typ := range wantType {
		if got := d.types[fam]; got != typ {
			t.Errorf("family %s: type %q, want %q", fam, got, typ)
		}
	}

	if d.val(t, "cabt_up") != 1 {
		t.Errorf("cabt_up = %g, want 1", d.val(t, "cabt_up"))
	}
	if d.val(t, "cabt_jobs_submitted_total") != 1 {
		t.Errorf("cabt_jobs_submitted_total = %g, want 1", d.val(t, "cabt_jobs_submitted_total"))
	}
	// The farm instrumented both jobs of the batch and timed each stage.
	if v := d.val(t, "cabt_farm_stage_seconds_count{stage=\"execute\"}"); v < 2 {
		t.Errorf("execute stage count = %g, want >= 2", v)
	}
	// Legacy grep-compatibility: integral series still render without an
	// exponent or decimal point (the dist-smoke CI greps ^cabt_workers_live 2).
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"\ncabt_workers_live 0\n", "cabt_up 1\n", "\ncabt_jobs_submitted_total 1\n"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition lost the legacy line %q", strings.TrimSpace(want))
		}
	}
}

// TestJournalRepairedBytesMetric: cabt_journal_repaired_bytes is the
// number of damaged bytes the journal's open discarded, rendered as an
// integer — the garbage tail's length on a damaged journal, 0 on an
// intact one.
func TestJournalRepairedBytesMetric(t *testing.T) {
	garbage := []byte("not a journal frame")
	for _, tc := range []struct {
		name string
		tail []byte
	}{{"intact", nil}, {"garbage-tail", garbage}} {
		t.Run(tc.name, func(t *testing.T) {
			journal := filepath.Join(t.TempDir(), "journal.cabt")
			j, err := dist.OpenJournal(journal)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Append(dist.Record{Type: dist.RecordSubmitted, ID: "job-1", Kind: "sweep", Jobs: 1}); err != nil {
				t.Fatal(err)
			}
			j.Close()
			f, err := os.OpenFile(journal, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			_, err = f.Write(tc.tail)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatal(err)
			}

			_, ts, _ := distServer(t, server.Config{Journal: journal})
			if typ := promScrape(t, ts.URL).types["cabt_journal_repaired_bytes"]; typ != "gauge" {
				t.Errorf("cabt_journal_repaired_bytes type %q, want gauge", typ)
			}
			resp, err := http.Get(ts.URL + "/v1/metrics")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			want := fmt.Sprintf("\ncabt_journal_repaired_bytes %d\n", len(tc.tail))
			if !strings.Contains(string(body), want) {
				t.Errorf("metrics lack %q", strings.TrimSpace(want))
			}
		})
	}
}

// TestDistObservabilityExactCounters drives a scripted distributed
// scenario — an abandoned lease, a recovering worker, a warm second
// pass, and a revalidated upload — and asserts the exact counter values
// the metrics endpoint must report for it.
func TestDistObservabilityExactCounters(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts, mk := distServer(t, server.Config{Store: st, LeaseTTL: 2 * time.Second})
	c := mk("")
	before := promScrape(t, ts.URL)

	// Phase 1 — cold pass with a lost worker: the evil worker leases one
	// of the two tasks and vanishes; the real (ephemeral) worker drains
	// the other, and an in-process lessee re-runs the abandoned one after
	// its lease expires.
	evil := newEvilWorker(t, ts.URL)
	var sub server.SubmitResponse
	req := server.SubmitRequest{Workloads: []string{"gcd"}, Levels: []int{0, 1}}
	c.do("POST", "/v1/jobs", req, http.StatusAccepted, &sub)
	if tk := evil.lease(); tk == nil {
		t.Fatal("evil worker got no task")
	}
	startWorker(t, ts.URL, dist.WorkerConfig{Name: "w1", Ephemeral: true})
	waitDone(t, c, sub.URL)

	cold := promScrape(t, ts.URL)
	// Queue accounting: 2 tasks enqueued and completed; exactly the one
	// abandoned lease expired and was redelivered exactly once.
	for key, want := range map[string]float64{
		"cabt_queue_enqueued_total":       2,
		"cabt_queue_completed_total":      2,
		"cabt_queue_lease_expiries_total": 1,
		"cabt_queue_retries_total":        1,
		"cabt_queue_pending":              0,
		"cabt_queue_leased":               0,
	} {
		if got := cold.val(t, key); got != want {
			t.Errorf("cold pass: %s = %g, want %g", key, got, want)
		}
	}
	// Store-protocol accounting, for the worker's task only (the
	// in-process lessee uses the store directly): one Load GET (404) and
	// one If-None-Match revalidation GET (404) before the PUT.
	for key, want := range map[string]float64{
		"cabt_store_remote_gets_total":         2,
		"cabt_store_remote_hits_total":         0,
		"cabt_store_remote_misses_total":       2,
		"cabt_store_remote_not_modified_total": 0,
		"cabt_store_remote_puts_total":         1,
		"cabt_store_remote_bad_puts_total":     0,
	} {
		if got := cold.val(t, key); got != want {
			t.Errorf("cold pass: %s = %g, want %g", key, got, want)
		}
	}
	// Worker-side remote-tier cache telemetry (process-global, so
	// compared as a delta): the worker's lookup missed over the network.
	if got := delta(cold, before, `cabt_cache_requests_total{tier="remote",outcome="miss"}`); got != 1 {
		t.Errorf("cold pass: remote-tier misses delta = %g, want 1", got)
	}

	// Phase 2 — warm pass: the ephemeral worker starts each task with an
	// empty memory cache, so both translations are served by the server
	// store: one GET and one hit each, no uploads.
	c.submitAndWait(req)
	warm := promScrape(t, ts.URL)
	for key, want := range map[string]float64{
		"cabt_store_remote_gets_total":         2,
		"cabt_store_remote_hits_total":         2,
		"cabt_store_remote_misses_total":       0,
		"cabt_store_remote_puts_total":         0,
		"cabt_store_remote_not_modified_total": 0,
		"cabt_queue_completed_total":           2,
		"cabt_queue_lease_expiries_total":      0,
	} {
		if got := delta(warm, cold, key); got != want {
			t.Errorf("warm pass: Δ%s = %g, want %g", key, got, want)
		}
	}
	if got := delta(warm, cold, `cabt_cache_requests_total{tier="remote",outcome="hit"}`); got != 2 {
		t.Errorf("warm pass: remote-tier hits delta = %g, want 2", got)
	}

	// Phase 3 — revalidated upload: storing an object the server already
	// holds must cost one 304, not a second upload.
	rs := dist.NewRemoteStore(ts.URL, nil, nil)
	prog := translateGCD(t)
	key := store.DeriveKey("obs-test", sha256.Sum256([]byte("obs-exact-counter-object")))
	if err := rs.Store(key, prog); err != nil {
		t.Fatal(err)
	}
	if err := rs.Store(key, prog); err != nil {
		t.Fatal(err)
	}
	reval := promScrape(t, ts.URL)
	for key, want := range map[string]float64{
		"cabt_store_remote_puts_total":         1, // first Store uploads
		"cabt_store_remote_not_modified_total": 1, // second is a 304
		"cabt_store_remote_gets_total":         2, // one revalidation GET each
	} {
		if got := delta(reval, warm, key); got != want {
			t.Errorf("revalidation: Δ%s = %g, want %g", key, got, want)
		}
	}
	if got := delta(reval, warm, "cabt_remote_store_puts_skipped_total"); got != 1 {
		t.Errorf("revalidation: Δcabt_remote_store_puts_skipped_total = %g, want 1", got)
	}
	if st := rs.Stats(); st.Puts != 1 || st.PutsSkipped != 1 {
		t.Errorf("client stats %+v, want 1 put + 1 skipped", st)
	}
}

// waitDone polls a submitted job until it leaves "running".
func waitDone(t *testing.T, c *client, url string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var job server.JobResponse
		c.do("GET", url+"?wait=1", nil, http.StatusOK, &job)
		if job.Status != "running" {
			if job.Status != "done" || job.Stats == nil || job.Stats.Failed != 0 {
				t.Fatalf("batch did not finish cleanly: %+v", job)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("batch did not finish")
		}
	}
}

// translateGCD builds a small real program for store round trips.
func translateGCD(t *testing.T) *core.Program {
	t.Helper()
	w, ok := workload.ByName("gcd")
	if !ok {
		t.Fatal("no gcd workload")
	}
	f, err := tc32asm.Assemble(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Translate(f, core.Options{Level: core.Level1})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}
