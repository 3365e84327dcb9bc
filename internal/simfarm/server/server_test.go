package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/simfarm"
	"repro/internal/simfarm/server"
	"repro/internal/simfarm/store"
	"repro/internal/tc32asm"
	"repro/internal/workload"
)

// client wraps one tenant's view of a test server.
type client struct {
	t      *testing.T
	base   string
	tenant string
	http   *http.Client
}

// mustNew builds a server, failing the test on a journal error, and
// releases its background resources at cleanup.
func mustNew(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func newServer(t *testing.T, st *store.Store) (*httptest.Server, func(tenant string) *client) {
	t.Helper()
	ts := httptest.NewServer(mustNew(t, server.Config{Workers: 4, Store: st}))
	t.Cleanup(ts.Close)
	return ts, func(tenant string) *client {
		return &client{t: t, base: ts.URL, tenant: tenant, http: ts.Client()}
	}
}

func (c *client) do(method, path string, body any, wantCode int, out any) {
	c.t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			c.t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, c.base+path, &buf)
	if err != nil {
		c.t.Fatal(err)
	}
	if c.tenant != "" {
		req.Header.Set(server.TenantHeader, c.tenant)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		var e server.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		c.t.Fatalf("%s %s: HTTP %d (want %d): %s", method, path, resp.StatusCode, wantCode, e.Error)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			c.t.Fatal(err)
		}
	}
}

// submitAndWait submits a batch and blocks until it is done.
func (c *client) submitAndWait(req server.SubmitRequest) server.JobResponse {
	c.t.Helper()
	var sub server.SubmitResponse
	c.do("POST", "/v1/jobs", req, http.StatusAccepted, &sub)
	deadline := time.Now().Add(time.Minute)
	for {
		var job server.JobResponse
		c.do("GET", sub.URL+"?wait=1", nil, http.StatusOK, &job)
		if job.Status == "done" {
			return job
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("job %s did not finish", sub.ID)
		}
	}
}

// TestSubmitMatchesDirectMeasure: an HTTP-submitted job must return
// exactly what repro.Measure computes for the same (workload, level).
func TestSubmitMatchesDirectMeasure(t *testing.T) {
	_, mk := newServer(t, nil)
	job := mk("").submitAndWait(server.SubmitRequest{Workloads: []string{"gcd", "sieve"}, Levels: []int{0, 3}})
	if job.Stats.Failed != 0 {
		t.Fatalf("failed jobs: %+v", job.Results)
	}
	if len(job.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(job.Results))
	}
	for _, r := range job.Results {
		w, ok := repro.WorkloadByName(r.Name)
		if !ok {
			t.Fatalf("unknown workload %q in result", r.Name)
		}
		m, err := repro.Measure(w, r.Level)
		if err != nil {
			t.Fatal(err)
		}
		lr := m.Levels[r.Level]
		if r.Instructions != m.Instructions || r.BoardCycles != m.BoardCycles ||
			r.C6xCycles != lr.C6xCycles || r.GeneratedCycles != lr.GeneratedCycles {
			t.Errorf("%s L%d: HTTP result differs from repro.Measure", r.Name, int(r.Level))
		}
	}
}

// TestExplicitJobSpecs exercises the jobs form with named configs.
func TestExplicitJobSpecs(t *testing.T) {
	_, mk := newServer(t, nil)
	job := mk("").submitAndWait(server.SubmitRequest{Jobs: []server.JobSpec{
		{Workload: "gcd", Level: 3, Config: "icache-4k"},
		{Workload: "gcd", Level: 3, Config: "icache-64b-direct"},
	}})
	if job.Stats.Failed != 0 {
		t.Fatalf("failed jobs: %+v", job.Results)
	}
	if job.Results[0].GeneratedCycles == job.Results[1].GeneratedCycles {
		t.Error("different I-cache configs produced identical L3 cycle counts")
	}
}

// TestWarmPassHitsCacheAcrossRestart: a second server over the same
// store directory serves the batch from disk.
func TestWarmPassHitsCacheAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, mk := newServer(t, st)
	req := server.SubmitRequest{Workloads: []string{"gcd"}, Levels: []int{1, 2}}
	cold := mk("").submitAndWait(req)
	if cold.Stats.CacheMisses == 0 {
		t.Fatal("cold pass translated nothing")
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, mk2 := newServer(t, st2)
	warm := mk2("").submitAndWait(req)
	if warm.Stats.CacheHits == 0 || warm.Stats.CacheMisses != 0 {
		t.Fatalf("restarted server did not serve from disk: %+v", warm.Stats)
	}
	for i := range warm.Results {
		if warm.Results[i].C6xCycles != cold.Results[i].C6xCycles {
			t.Errorf("result %d differs across restart", i)
		}
	}
}

// TestTenantIsolation: two tenants submitting the identical batch share
// no cache entries — each translates for itself, and the store holds one
// object per (tenant, key).
func TestTenantIsolation(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, mk := newServer(t, st)
	req := server.SubmitRequest{Workloads: []string{"gcd"}, Levels: []int{1}}

	ca, cb := mk("tenant-a"), mk("tenant-b")
	a := ca.submitAndWait(req)
	if a.Stats.CacheMisses != 1 {
		t.Fatalf("tenant-a misses = %d, want 1", a.Stats.CacheMisses)
	}
	b := cb.submitAndWait(req)
	if b.Stats.CacheMisses != 1 {
		t.Fatalf("tenant-b should not see tenant-a's cache: %+v", b.Stats)
	}
	if a.Results[0].C6xCycles != b.Results[0].C6xCycles {
		t.Error("tenants disagree on identical jobs")
	}
	if got := st.Stats().Objects; got != 2 {
		t.Errorf("store objects = %d, want 2 (one per tenant namespace)", got)
	}

	// Job records are tenant-scoped: a foreign tenant (or the anonymous
	// tenant) sees a 404 indistinguishable from a missing id.
	cb.do("GET", "/v1/jobs/"+a.ID, nil, http.StatusNotFound, nil)
	mk("").do("GET", "/v1/jobs/"+a.ID, nil, http.StatusNotFound, nil)
	ca.do("GET", "/v1/jobs/"+a.ID, nil, http.StatusOK, nil)

	// Stats disclose only the caller's own farm, plus the tenant count.
	var stats server.StatsResponse
	ca.do("GET", "/v1/stats", nil, http.StatusOK, &stats)
	if len(stats.Tenants) != 1 || stats.Tenants[0].Tenant != "tenant-a" {
		t.Fatalf("tenant-a stats tenants = %+v, want only tenant-a", stats.Tenants)
	}
	if stats.TenantCount != 2 {
		t.Errorf("tenant count = %d, want 2", stats.TenantCount)
	}
	if stats.Store == nil || stats.Store.Objects != 2 {
		t.Errorf("stats store = %+v", stats.Store)
	}
	var anon server.StatsResponse
	mk("").do("GET", "/v1/stats", nil, http.StatusOK, &anon)
	if len(anon.Tenants) != 0 {
		t.Errorf("anonymous caller sees tenant farms: %+v", anon.Tenants)
	}
}

// TestTenantStatsMatchStandaloneFarm: one server farm serves every
// tenant, yet each tenant's /v1/stats counters are exactly what a farm
// of its own would report for its jobs alone.
func TestTenantStatsMatchStandaloneFarm(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, mk := newServer(t, st)
	// Levels 0 and 1 share a translation across the two I-cache
	// configs, so the batch hits its own cache too.
	var specs []server.JobSpec
	for _, cfg := range []string{"", "icache-4way"} {
		for _, w := range []string{"gcd", "sieve"} {
			for _, l := range []int{0, 1, 3} {
				specs = append(specs, server.JobSpec{Workload: w, Level: l, Config: cfg})
			}
		}
	}
	req := server.SubmitRequest{Jobs: specs}

	// The standalone farm runs the resolved batch twice on a store of
	// its own, so its disk level starts as empty as each tenant's keys.
	own, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]simfarm.Job, len(specs))
	configs := map[string]simfarm.MarchConfig{}
	for _, c := range simfarm.DefaultMarchConfigs() {
		configs[c.Name] = c
	}
	for i, sp := range specs {
		w, _ := workload.ByName(sp.Workload)
		jobs[i] = simfarm.Job{Workload: w, Config: sp.Config, Options: core.Options{Level: core.Level(sp.Level), Desc: configs[sp.Config].Desc}}
	}
	standalone := simfarm.New(simfarm.Config{Workers: 4, Cache: simfarm.NewPersistentTranslationCache(own)})
	standalone.Run(jobs)
	standalone.Run(jobs)
	want := standalone.Stats()
	if want.CacheHits == 0 || want.CacheMisses == 0 || want.ReferenceRuns == 0 {
		t.Fatalf("standalone stats %+v exercise nothing", want)
	}

	for _, tenant := range []string{"tenant-a", "tenant-b"} {
		c := mk(tenant)
		c.submitAndWait(req)
		c.submitAndWait(req)
		var stats server.StatsResponse
		c.do("GET", "/v1/stats", nil, http.StatusOK, &stats)
		if len(stats.Tenants) != 1 || stats.Tenants[0].Farm != want {
			t.Errorf("%s farm stats = %+v, want %+v", tenant, stats.Tenants, want)
		}
	}
	if got := st.Stats().Objects; got != 2*want.CachedPrograms {
		t.Errorf("store objects = %d, want %d (each tenant's programs)", got, 2*want.CachedPrograms)
	}
}

// TestNamespacedObjectIsTenantDiskHit: the on-disk layout is the one a
// tenant's store namespace writes, so an object stored through
// store.Store.Namespace is a disk hit for that tenant on a fresh server.
func TestNamespacedObjectIsTenantDiskHit(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workload.ByName("gcd")
	f, err := tc32asm.Assemble(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Level: core.Level1}
	prog, err := core.Translate(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	h, err := simfarm.HashELF(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Namespace("t").Store(simfarm.ProgramKey(h, opts), prog); err != nil {
		t.Fatal(err)
	}

	_, mk := newServer(t, st)
	c := mk("t")
	job := c.submitAndWait(server.SubmitRequest{Workloads: []string{"gcd"}, Levels: []int{1}})
	if job.Stats.CacheHits != 1 || job.Stats.CacheMisses != 0 {
		t.Fatalf("batch stats %+v, want the one job served from disk", job.Stats)
	}
	var stats server.StatsResponse
	c.do("GET", "/v1/stats", nil, http.StatusOK, &stats)
	if len(stats.Tenants) != 1 || stats.Tenants[0].Farm.DiskCacheHits != 1 {
		t.Fatalf("tenant t stats = %+v, want 1 disk hit", stats.Tenants)
	}
	if other := mk("u").submitAndWait(server.SubmitRequest{Workloads: []string{"gcd"}, Levels: []int{1}}); other.Stats.CacheMisses != 1 {
		t.Errorf("tenant u stats %+v, want a miss: the object is t's", other.Stats)
	}
}

// TestBadRequests covers the API's rejection paths.
func TestBadRequests(t *testing.T) {
	ts, mk := newServer(t, nil)
	c := mk("")
	for _, tc := range []struct {
		name string
		req  server.SubmitRequest
	}{
		{"empty", server.SubmitRequest{}},
		{"unknown-workload", server.SubmitRequest{Workloads: []string{"nope"}, Levels: []int{1}}},
		{"bad-level", server.SubmitRequest{Workloads: []string{"gcd"}, Levels: []int{7}}},
		{"unknown-config", server.SubmitRequest{Jobs: []server.JobSpec{{Workload: "gcd", Level: 1, Config: "nope"}}}},
		{"both-forms", server.SubmitRequest{
			Jobs:      []server.JobSpec{{Workload: "gcd", Level: 1}},
			Workloads: []string{"gcd"}, Levels: []int{1},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c.do("POST", "/v1/jobs", tc.req, http.StatusBadRequest, nil)
		})
	}

	t.Run("bad-tenant", func(t *testing.T) {
		mk("no/slashes allowed").do("POST", "/v1/jobs",
			server.SubmitRequest{Workloads: []string{"gcd"}, Levels: []int{1}}, http.StatusBadRequest, nil)
	})
	t.Run("unknown-job", func(t *testing.T) {
		c.do("GET", "/v1/jobs/job-999", nil, http.StatusNotFound, nil)
	})
	t.Run("malformed-json", func(t *testing.T) {
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte("{")))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("HTTP %d, want 400", resp.StatusCode)
		}
	})
}

// TestStatusTransitions: a submitted job is observable as running before
// done, and its record carries the batch shape.
func TestStatusTransitions(t *testing.T) {
	_, mk := newServer(t, nil)
	c := mk("")
	var sub server.SubmitResponse
	c.do("POST", "/v1/jobs", server.SubmitRequest{Workloads: []string{"gcd"}, Levels: []int{1}},
		http.StatusAccepted, &sub)
	if sub.Jobs != 1 || sub.Status != "running" || sub.URL != fmt.Sprintf("/v1/jobs/%s", sub.ID) {
		t.Fatalf("submit response = %+v", sub)
	}
	var job server.JobResponse
	c.do("GET", sub.URL+"?wait=1", nil, http.StatusOK, &job)
	if job.Status != "done" || job.Jobs != 1 || len(job.Results) != 1 || job.Stats == nil {
		t.Fatalf("job response = %+v", job)
	}
}
