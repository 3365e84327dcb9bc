package server

import (
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/simfarm"
	"repro/internal/simfarm/dist"
	"repro/internal/simfarm/store"
	"repro/internal/soc"
	"repro/internal/workload"
)

// Config configures a Server.
type Config struct {
	// Workers is the number of in-process lessees each batch brings: at
	// most this many of a batch's jobs run at once on the server's own
	// farm (0 = GOMAXPROCS).
	Workers int
	// Store is the persistent level of the farm's translation cache,
	// shared by every tenant; nil keeps the cache in memory only.
	Store *store.Store

	// AdminToken enables the store-administration endpoints
	// (GET /v1/admin/store, POST /v1/admin/gc): requests must present it
	// in the X-Cabt-Admin-Token header. Empty leaves the endpoints
	// disabled — the store is shared across tenants, and a sweep evicts
	// every tenant's objects, so administration must never be reachable
	// by an ordinary tenant.
	AdminToken string

	// RetainTTL is the job-record retention time: finished records older
	// than it are pruned (0 = keep forever). Running records are never
	// pruned.
	RetainTTL time.Duration
	// RetainMax caps the number of finished records kept per tenant; the
	// earliest-finished are pruned first (0 = unlimited).
	RetainMax int
	// Clock overrides the retention clock (tests); nil = time.Now.
	Clock func() time.Time

	// Journal is the path of the durable batch journal. When set, every
	// batch's submission and completion is recorded there and replayed on
	// startup, so finished results survive a server restart. "" disables
	// durability (records are in-memory only, as before).
	Journal string

	// LeaseTTL is the remote task lease duration: a worker that stops
	// heartbeating loses its task after this long and the task is re-run
	// in-process (0 = the dist default, 15 s).
	LeaseTTL time.Duration

	// RateLimit caps each tenant's job submissions per second (token
	// bucket of RateBurst capacity); beyond it submissions get 429 with
	// Retry-After. 0 disables limiting.
	RateLimit float64
	// RateBurst is the rate limiter's burst size (minimum 1).
	RateBurst int
}

// Server is the HTTP front-end of the simulation farm. Every tenant's
// (X-Cabt-Tenant header) batch becomes tasks on one leased queue, taken
// by remote workers and by the server's in-process lessees, which run on
// one Farm whose memo keys and store keys are derived from the tenant,
// so tenants share server capacity but never cache entries.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	start time.Time
	// reg holds this server's metric bridges (Func metrics sampling the
	// queue, store and job table); /v1/metrics renders it followed by
	// the process-global obs.Default. Per-server so concurrent servers
	// in one process (tests) never read each other's closures.
	reg *obs.Registry

	// Distribution layer: queue and workerAPI always exist; journal,
	// limiter and storeSrv are nil when unconfigured.
	queue    *dist.Queue
	journal  *dist.Journal
	limiter  *dist.RateLimiter
	storeSrv *dist.StoreServer

	farm    *simfarm.Farm  // the in-process lessees' farm
	lessees sync.WaitGroup // running in-process lessees

	draining    atomic.Bool
	rateLimited atomic.Int64
	stopSweep   func()
	closeOnce   sync.Once

	mu     sync.Mutex
	jobs   map[string]*jobRecord
	nextID int
	// submitted counts batches cumulatively — retention prunes records
	// from jobs but must not shrink the reported submission counter.
	submitted int
	// tenants is each tenant's share of the farm counters, summed from
	// its batches' results whichever process ran them.
	tenants map[string]simfarm.FarmStats
}

// jobRecord tracks one submitted batch (single-core or SoC). done is
// closed when results and stats are populated; they are written exactly
// once, before the close.
type jobRecord struct {
	id      string
	tenant  string
	created time.Time
	kind    string // "sweep" or "soc"
	jobs    int
	// finished is when the batch completed; written once before done is
	// closed (readers synchronize on the close). Retention ages finished
	// records from this time, so a long-running batch is never prunable
	// the moment it completes.
	finished time.Time

	done    chan struct{}
	results []simfarm.Result
	stats   simfarm.BatchStats

	socResults []simfarm.SoCResult
	socStats   simfarm.SoCBatchStats

	// err marks a batch that never produced results (interrupted by a
	// server restart).
	err string
}

// New builds a server. The only error source is the journal: an
// unusable journal path (a directory, an unwritable parent, an I/O
// error) refuses to start rather than silently running without
// durability.
func New(cfg Config) (*Server, error) {
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		start:   time.Now(),
		reg:     obs.NewRegistry(),
		queue:   dist.NewQueue(dist.QueueConfig{LeaseTTL: cfg.LeaseTTL, Clock: cfg.Clock}),
		jobs:    map[string]*jobRecord{},
		tenants: map[string]simfarm.FarmStats{},
	}
	var cache *simfarm.TranslationCache
	if cfg.Store != nil {
		cache = simfarm.NewPersistentTranslationCache(cfg.Store)
	}
	s.farm = simfarm.New(simfarm.Config{Workers: cfg.Workers, Cache: cache})
	if cfg.RateLimit > 0 {
		s.limiter = dist.NewRateLimiter(cfg.RateLimit, cfg.RateBurst, cfg.Clock)
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("POST /v1/soc-jobs", s.handleSoCSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/admin/store", s.handleStoreStats)
	s.mux.HandleFunc("POST /v1/admin/gc", s.handleGC)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	(&dist.WorkerAPI{Queue: s.queue}).Register(s.mux)
	if cfg.Store != nil {
		s.storeSrv = dist.NewStoreServer(cfg.Store)
		s.storeSrv.Register(s.mux)
	}
	if cfg.Journal != "" {
		j, err := dist.OpenJournal(cfg.Journal)
		if err != nil {
			return nil, err
		}
		s.journal = j
		s.replayJournal()
	}
	if cfg.Clock == nil {
		// Background lease-expiry sweep (expiry is also lazy on every
		// remote queue operation; the sweep bounds requeue latency when
		// no worker is talking to us). Tests with a fake clock drive
		// expiry themselves.
		s.stopSweep = s.startSweeper()
	}
	s.registerMetrics()
	s.registerPprof()
	return s, nil
}

// registerPprof mounts net/http/pprof on the server mux, gated on the
// admin token alone (unlike adminOK it does not require a store —
// profiling is about this process, not the cache). Without a configured
// token the endpoints stay disabled.
func (s *Server) registerPprof() {
	gate := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if s.adminTokenOK(w, r, "profiling") {
				h(w, r)
			}
		}
	}
	s.mux.HandleFunc("/debug/pprof/", gate(pprof.Index))
	s.mux.HandleFunc("/debug/pprof/cmdline", gate(pprof.Cmdline))
	s.mux.HandleFunc("/debug/pprof/profile", gate(pprof.Profile))
	s.mux.HandleFunc("/debug/pprof/symbol", gate(pprof.Symbol))
	s.mux.HandleFunc("/debug/pprof/trace", gate(pprof.Trace))
}

// Close releases the server's background resources (in-process
// lessees, once their current task is done; expiry sweeper; journal
// handle). It does not drain — call Drain first for a graceful
// shutdown. Idempotent.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		s.queue.Close()
		s.lessees.Wait()
		if s.stopSweep != nil {
			s.stopSweep()
		}
		if s.journal != nil {
			err = s.journal.Close()
		}
	})
	return err
}

// now returns the retention clock's time.
func (s *Server) now() time.Time {
	if s.cfg.Clock != nil {
		return s.cfg.Clock()
	}
	return time.Now()
}

// prune applies the retention policy (caller holds s.mu): finished
// records older than RetainTTL go, then the oldest finished records
// beyond RetainMax. Running batches are always kept — their results are
// still being produced and the submitter holds the id.
func (s *Server) prune(now time.Time) {
	finished := func(rec *jobRecord) bool {
		select {
		case <-rec.done:
			return true
		default:
			return false
		}
	}
	if s.cfg.RetainTTL > 0 {
		for id, rec := range s.jobs {
			if finished(rec) && now.Sub(rec.finished) > s.cfg.RetainTTL {
				delete(s.jobs, id)
			}
		}
	}
	if s.cfg.RetainMax > 0 {
		// The cap applies per tenant: one tenant's burst must not evict
		// another tenant's fresh records (job visibility is tenant-scoped).
		byTenant := map[string][]*jobRecord{}
		for _, rec := range s.jobs {
			if finished(rec) {
				byTenant[rec.tenant] = append(byTenant[rec.tenant], rec)
			}
		}
		for _, done := range byTenant {
			if len(done) <= s.cfg.RetainMax {
				continue
			}
			sort.Slice(done, func(i, j int) bool { return done[i].finished.Before(done[j].finished) })
			for _, rec := range done[:len(done)-s.cfg.RetainMax] {
				delete(s.jobs, rec.id)
			}
		}
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// TenantHeader names the tenant selector. An absent or empty header is
// the shared root tenant, whose cache namespace is the store's root — the
// same namespace the cabt-farm CLI uses, so CLI sweeps and anonymous HTTP
// traffic pool their translations.
const TenantHeader = "X-Cabt-Tenant"

var tenantRE = regexp.MustCompile(`^[A-Za-z0-9._-]{0,64}$`)

// tenantOf returns the request's tenant, writing the 400 response itself
// when the header is malformed.
func tenantOf(w http.ResponseWriter, r *http.Request) (string, bool) {
	tenant := r.Header.Get(TenantHeader)
	if !tenantRE.MatchString(tenant) {
		httpError(w, http.StatusBadRequest, "bad tenant %q: want [A-Za-z0-9._-]{0,64}", tenant)
		return "", false
	}
	return tenant, true
}

// --- wire types ---

// JobSpec is one job of a submission, by name: the workload and march
// config resolve against the server's registries (workload.ByName and
// simfarm.DefaultMarchConfigs), so clients never ship code or raw
// descriptions.
type JobSpec struct {
	// Workload names a built-in benchmark program.
	Workload string `json:"workload"`
	// Level is the translation detail level, 0..3.
	Level int `json:"level"`
	// Config optionally names a sweep configuration ("base",
	// "icache-4k", "icache-64b-direct", "icache-4way"); "" is the
	// default march.
	Config string `json:"config,omitempty"`
}

// SubmitRequest is the POST /v1/jobs body. Either Jobs is given
// explicitly, or the Workloads × Levels sweep shorthand (with the
// default configuration) — not both.
type SubmitRequest struct {
	Jobs []JobSpec `json:"jobs,omitempty"`

	Workloads []string `json:"workloads,omitempty"`
	Levels    []int    `json:"levels,omitempty"`
}

// SubmitResponse acknowledges a submission.
type SubmitResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Jobs   int    `json:"jobs"`
	URL    string `json:"url"`
}

// SoCSubmitRequest is the POST /v1/soc-jobs body: a multi-core sweep
// over workloads × core counts × quanta × arbitration policies, every
// core translated at Level (or run on the reference ISS with ISS set).
type SoCSubmitRequest struct {
	Workloads    []string `json:"workloads"`
	CoreCounts   []int    `json:"core_counts"`
	Quanta       []int64  `json:"quanta"`
	Arbitrations []string `json:"arbitrations,omitempty"` // default ["rr"]
	Level        int      `json:"level"`
	ISS          bool     `json:"iss,omitempty"`
	// Parallel runs each SoC on the speculative parallel scheduler
	// (bit-identical results to the sequential one).
	Parallel bool `json:"parallel,omitempty"`
}

// JobResponse is the GET /v1/jobs/{id} body. Kind says which result set
// applies; Results/Stats (sweep) or SoCResults/SoCStats (soc) are
// present once Status is "done".
type JobResponse struct {
	ID      string    `json:"id"`
	Tenant  string    `json:"tenant,omitempty"`
	Status  string    `json:"status"`
	Kind    string    `json:"kind"`
	Created time.Time `json:"created"`
	Jobs    int       `json:"jobs"`

	Results []simfarm.Result    `json:"results,omitempty"`
	Stats   *simfarm.BatchStats `json:"stats,omitempty"`

	SoCResults []simfarm.SoCResult    `json:"soc_results,omitempty"`
	SoCStats   *simfarm.SoCBatchStats `json:"soc_stats,omitempty"`

	// Error is set (with Status "failed") when the batch produced no
	// results at all — e.g. it was running when the server restarted.
	Error string `json:"error,omitempty"`
}

// TenantStats is one tenant's cumulative share of the farm's counters.
type TenantStats struct {
	Tenant string            `json:"tenant"`
	Farm   simfarm.FarmStats `json:"farm"`
}

// StatsResponse is the GET /v1/stats body. Tenants carries at most the
// requesting tenant's own farm stats; TenantCount (the tenants the farm
// has run jobs for) is the only cross-tenant figure disclosed.
type StatsResponse struct {
	UptimeSeconds float64       `json:"uptime_seconds"`
	JobsSubmitted int           `json:"jobs_submitted"`
	JobsRunning   int           `json:"jobs_running"`
	TenantCount   int           `json:"tenant_count"`
	Store         *store.Stats  `json:"store,omitempty"`
	Tenants       []TenantStats `json:"tenants"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// --- handlers ---

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant, ok := tenantOf(w, r)
	if !ok || !s.admitSubmission(w, tenant) {
		return
	}
	var req SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	jobs, err := resolve(req, tenant)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	rec := s.register(tenant, "sweep", len(jobs))
	go func() {
		results, stats := s.runSim(rec, jobs)
		rec.results, rec.stats = results, stats
		s.finish(rec)
	}()

	writeJSON(w, http.StatusAccepted, SubmitResponse{ID: rec.id, Status: "running", Jobs: len(jobs), URL: "/v1/jobs/" + rec.id})
}

// register files a new job record under the retention policy and
// journals the submission.
func (s *Server) register(tenant, kind string, jobs int) *jobRecord {
	rec := &jobRecord{tenant: tenant, created: s.now(), kind: kind, jobs: jobs, done: make(chan struct{})}
	s.mu.Lock()
	s.prune(rec.created)
	s.nextID++
	s.submitted++
	rec.id = fmt.Sprintf("job-%d", s.nextID)
	s.jobs[rec.id] = rec
	s.mu.Unlock()
	s.journalAppend(rec.journalRecord(dist.RecordSubmitted, rec.created))
	return rec
}

// finish stamps a completed record, journals the full result payload,
// and wakes waiters. Results/stats (or socResults/socStats) must be
// populated before the call.
func (s *Server) finish(rec *jobRecord) {
	rec.finished = s.now()
	s.journalAppend(rec.journalRecord(dist.RecordFinished, rec.finished))
	close(rec.done)
}

// journalRecord renders rec as a journal record of type typ at time t:
// the batch identity, plus the error for Failed or the result set of
// the batch's kind for Finished.
func (rec *jobRecord) journalRecord(typ dist.RecordType, t time.Time) dist.Record {
	jr := dist.Record{Type: typ, ID: rec.id, Tenant: rec.tenant, Kind: rec.kind, Jobs: rec.jobs, Time: t}
	switch typ {
	case dist.RecordFailed:
		jr.Error = rec.err
	case dist.RecordFinished:
		if rec.kind == "soc" {
			stats := rec.socStats
			jr.SoCResults, jr.SoCStats = rec.socResults, &stats
		} else {
			stats := rec.stats
			jr.Results, jr.Stats = rec.results, &stats
		}
	}
	return jr
}

// handleSoCSubmit accepts a multi-core SoC sweep.
func (s *Server) handleSoCSubmit(w http.ResponseWriter, r *http.Request) {
	tenant, ok := tenantOf(w, r)
	if !ok || !s.admitSubmission(w, tenant) {
		return
	}
	var req SoCSubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	jobs, err := resolveSoC(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	for i := range jobs {
		jobs[i].Tenant = tenant
	}
	rec := s.register(tenant, "soc", len(jobs))
	go func() {
		results, stats := s.runSoC(rec, jobs)
		rec.socResults, rec.socStats = results, stats
		s.finish(rec)
	}()

	writeJSON(w, http.StatusAccepted, SubmitResponse{ID: rec.id, Status: "running", Jobs: len(jobs), URL: "/v1/jobs/" + rec.id})
}

// resolveSoC validates and expands a SoC sweep request.
func resolveSoC(req SoCSubmitRequest) ([]simfarm.SoCJob, error) {
	if len(req.Workloads) == 0 || len(req.CoreCounts) == 0 || len(req.Quanta) == 0 {
		return nil, fmt.Errorf("need workloads, core_counts and quanta")
	}
	for _, n := range req.CoreCounts {
		if n < 1 || n > 64 {
			return nil, fmt.Errorf("bad core count %d: want 1..64", n)
		}
	}
	for _, q := range req.Quanta {
		if q < 1 || q > 1<<20 {
			return nil, fmt.Errorf("bad quantum %d: want 1..%d", q, 1<<20)
		}
	}
	if req.Level < int(core.Level0) || req.Level > int(core.Level3) {
		return nil, fmt.Errorf("bad level %d: want 0..3", req.Level)
	}
	arbNames := req.Arbitrations
	if len(arbNames) == 0 {
		arbNames = []string{"rr"}
	}
	var arbs []soc.Arbitration
	for _, n := range arbNames {
		a, ok := soc.ArbitrationByName(n)
		if !ok {
			return nil, fmt.Errorf("bad arbitration %q: want rr or fixed", n)
		}
		arbs = append(arbs, a)
	}
	jobs, err := simfarm.SoCSweepJobs(req.Workloads, req.CoreCounts, req.Quanta, arbs,
		core.Options{Level: core.Level(req.Level)}, req.ISS, req.Parallel)
	if err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("empty sweep (are the workloads available at these core counts?)")
	}
	return jobs, nil
}

// resolve turns a tenant's submission into farm jobs, validating every
// name.
func resolve(req SubmitRequest, tenant string) ([]simfarm.Job, error) {
	specs := req.Jobs
	if len(specs) > 0 && (len(req.Workloads) > 0 || len(req.Levels) > 0) {
		return nil, fmt.Errorf("give either jobs or workloads×levels, not both")
	}
	if len(specs) == 0 {
		for _, wl := range req.Workloads {
			for _, l := range req.Levels {
				specs = append(specs, JobSpec{Workload: wl, Level: l})
			}
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("empty batch")
	}
	configs := map[string]simfarm.MarchConfig{"": {}}
	for _, c := range simfarm.DefaultMarchConfigs() {
		configs[c.Name] = c
	}
	jobs := make([]simfarm.Job, 0, len(specs))
	for _, sp := range specs {
		wl, ok := workload.ByName(sp.Workload)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", sp.Workload)
		}
		if sp.Level < int(core.Level0) || sp.Level > int(core.Level3) {
			return nil, fmt.Errorf("bad level %d: want 0..3", sp.Level)
		}
		cfg, ok := configs[sp.Config]
		if !ok {
			return nil, fmt.Errorf("unknown config %q", sp.Config)
		}
		jobs = append(jobs, simfarm.Job{
			Workload: wl,
			Config:   cfg.Name,
			Options:  core.Options{Level: core.Level(sp.Level), Desc: cfg.Desc},
			Tenant:   tenant,
		})
	}
	return jobs, nil
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	tenant, ok := tenantOf(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	rec, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	// A job is only visible to the tenant that submitted it; a foreign
	// tenant gets the same 404 as a nonexistent id, revealing nothing.
	if !ok || rec.tenant != tenant {
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	if r.URL.Query().Get("wait") != "" {
		select {
		case <-rec.done:
		case <-r.Context().Done():
			return
		case <-time.After(5 * time.Minute):
		}
	}
	resp := JobResponse{ID: rec.id, Tenant: rec.tenant, Status: "running", Kind: rec.kind, Created: rec.created, Jobs: rec.jobs}
	select {
	case <-rec.done:
		if rec.err != "" {
			resp.Status = "failed"
			resp.Error = rec.err
			break
		}
		resp.Status = "done"
		// The payload a replayed Finished record restores, field for field.
		jr := rec.journalRecord(dist.RecordFinished, rec.finished)
		resp.Results, resp.Stats, resp.SoCResults, resp.SoCStats = jr.Results, jr.Stats, jr.SoCResults, jr.SoCStats
	default:
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleStats reports service-wide aggregates (uptime, job and store
// counters) plus the requesting tenant's own farm view only — tenant
// names and per-tenant traffic are never disclosed across tenants.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	tenant, ok := tenantOf(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	s.prune(s.now())
	resp := StatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		JobsSubmitted: s.submitted,
		TenantCount:   len(s.tenants),
		Tenants:       []TenantStats{},
	}
	if fs, ok := s.tenants[tenant]; ok {
		resp.Tenants = append(resp.Tenants, TenantStats{Tenant: tenant, Farm: fs})
	}
	for _, rec := range s.jobs {
		select {
		case <-rec.done:
		default:
			resp.JobsRunning++
		}
	}
	s.mu.Unlock()
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		resp.Store = &st
	}
	writeJSON(w, http.StatusOK, resp)
}

// GCResponse is the POST /v1/admin/gc body: what the sweep removed and
// the store state after it.
type GCResponse struct {
	GC    store.GCResult `json:"gc"`
	Store store.Stats    `json:"store"`
}

// AdminTokenHeader carries the admin credential of the /v1/admin
// endpoints.
const AdminTokenHeader = "X-Cabt-Admin-Token"

// adminOK authorizes an admin request, writing the error response
// itself when it fails: the endpoints are disabled without a configured
// token (403), useless without a store (404), and tenant-blind — only
// the token grants access, because the store is shared across tenants.
func (s *Server) adminOK(w http.ResponseWriter, r *http.Request) bool {
	if !s.adminTokenOK(w, r, "administration") {
		return false
	}
	if s.cfg.Store == nil {
		httpError(w, http.StatusNotFound, "no persistent store configured")
		return false
	}
	return true
}

// adminTokenOK checks the request's admin token, writing the 403 itself
// when it fails; feature names what a server without a token disables.
func (s *Server) adminTokenOK(w http.ResponseWriter, r *http.Request, feature string) bool {
	if s.cfg.AdminToken == "" {
		httpError(w, http.StatusForbidden, "%s disabled (start the server with an admin token)", feature)
		return false
	}
	got := r.Header.Get(AdminTokenHeader)
	if subtle.ConstantTimeCompare([]byte(got), []byte(s.cfg.AdminToken)) != 1 {
		httpError(w, http.StatusForbidden, "bad admin token")
		return false
	}
	return true
}

// handleStoreStats reports the persistent store's point-in-time state
// (GET /v1/admin/store).
func (s *Server) handleStoreStats(w http.ResponseWriter, r *http.Request) {
	if !s.adminOK(w, r) {
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.Store.Stats())
}

// handleGC triggers a store sweep (POST /v1/admin/gc). The optional
// max-age query parameter (a Go duration, e.g. "24h") additionally
// evicts objects not used within that window; without it the sweep only
// enforces the byte budget.
func (s *Server) handleGC(w http.ResponseWriter, r *http.Request) {
	if !s.adminOK(w, r) {
		return
	}
	var maxAge time.Duration
	if raw := r.URL.Query().Get("max-age"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d < 0 {
			httpError(w, http.StatusBadRequest, "bad max-age %q: want a non-negative duration", raw)
			return
		}
		maxAge = d
	}
	writeJSON(w, http.StatusOK, GCResponse{GC: s.cfg.Store.GC(maxAge), Store: s.cfg.Store.Stats()})
}

// HealthResponse is the /healthz and /readyz body.
type HealthResponse struct {
	Status string `json:"status"`
	// Draining is true while the server refuses new submissions.
	Draining bool `json:"draining,omitempty"`
	// Workers is the live remote worker count (informational; a server
	// with no workers is still ready — its in-process lessees run every
	// task).
	Workers int `json:"workers"`
}

// handleHealthz is process liveness: if the handler runs at all, the
// process is alive. Always 200 — restarts are for dead processes, and a
// degraded-but-serving server must not be killed by its supervisor.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Workers: s.queue.LiveWorkers()})
}

// handleReadyz is traffic readiness: 503 while draining so a load
// balancer routes new submissions elsewhere, 200 otherwise. A server
// without live workers is ready: its in-process lessees run every task,
// with identical results.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{Status: "ok", Draining: s.draining.Load(), Workers: s.queue.LiveWorkers()}
	code := http.StatusOK
	if resp.Draining {
		resp.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(ErrorResponse{Error: fmt.Sprintf(format, args...)})
}
