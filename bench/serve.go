package main

// serve.mixed: the service rung. An in-process server.New (store and
// journal in a directory of their own) listens on loopback; as many
// clients as GOMAXPROCS each loop POST /v1/jobs → GET ?wait=1 over a
// fixed Zipf-shaped schedule of batches across tenants. A batch is the
// six built-in programs at the tenant's level. The programs are tiny
// (1.6 k–41 k instructions), so HTTP and JSON, the journal's fsyncs, the
// store, the farm's dispatch and platform construction dominate, and
// the engine does little.
//
// All three cache tiers are in the timed region: a quarter of the
// tenants were served by an earlier server lifetime on the same store
// (set-up does that), so their first batch loads from disk; the other
// tenants' first batch translates and writes through; every later batch
// of a tenant hits memory.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/iss"
	"repro/internal/platform"
	"repro/internal/simfarm"
	"repro/internal/simfarm/dist"
	"repro/internal/simfarm/server"
	"repro/internal/simfarm/store"
	"repro/internal/workload"
)

type serveBatch struct {
	tenant string
	level  int
}

// serveSchedule lays B batches over T tenants. How often a tenant of a
// given popularity rank appears (Zipf, exponent 1.1, at least once),
// which level a rank runs at (1 + rank mod 3) and the order of the
// batches are the same for every seed, so every seed does the same work
// in the same order; the seed names the tenants, and with them the
// store's namespaces and keys. (A seeded order moved batch_p50_ms by
// more than the host's own noise: the median batch is a warm one, and
// how many warm batches run beside another client's cold one depends on
// the order.) prior lists the tenants (every fourth rank) an earlier
// server lifetime already served.
func serveSchedule(seed int64, sz sizes) (schedule, prior []serveBatch) {
	r, order := newRNG(seed, "serve"), newRNG(0, "serve-order")
	T, B := sz.serveTenants, sz.serveBatches
	weights := make([]float64, T)
	var sum float64
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), 1.1)
		sum += weights[i]
	}
	counts := make([]int, T)
	left := B
	for i := range counts {
		counts[i] = max(1, int(float64(B)*weights[i]/sum))
		left -= counts[i]
	}
	for i := 0; left > 0; i, left = (i+1)%T, left-1 {
		counts[i]++
	}
	for i := 0; left < 0; i = (i + 1) % T {
		if counts[i] > 1 {
			counts[i]--
			left++
		}
	}
	for rank, n := range counts {
		b := serveBatch{tenant: fmt.Sprintf("t%02d-%08x", rank, uint32(r.next())), level: 1 + rank%3}
		for ; n > 0; n-- {
			schedule = append(schedule, b)
		}
		if rank%4 == 3 {
			prior = append(prior, b)
		}
	}
	for i := len(schedule) - 1; i > 0; i-- {
		j := order.intn(i + 1)
		schedule[i], schedule[j] = schedule[j], schedule[i]
	}
	return schedule, prior
}

// builtinRefs holds the benchmark's own reference runs of the six
// built-in programs: every result the server returns must report these
// instruction and cycle counts.
var builtinRefs = sync.OnceValues(func() (map[string]iss.Stats, error) {
	refs := map[string]iss.Stats{}
	for _, w := range workload.Six() {
		pp, err := assembleAndReference(nil, program{name: w.Name, source: w.Source, expected: w.Expected}, 0)
		if err != nil {
			return nil, err
		}
		refs[w.Name] = pp.ref
	}
	return refs, nil
})

type serveInst struct {
	cfg      *config
	ly       *layers
	dir      string
	st       *store.Store
	srv      *server.Server
	hs       *http.Server
	served   chan error
	base     string
	client   *http.Client
	schedule []serveBatch
	names    []string
	refs     map[string]iss.Stats
}

// start opens the store and the journal under si.dir and serves on a
// fresh loopback port.
func (si *serveInst) start() error {
	var err error
	if si.st, err = store.Open(filepath.Join(si.dir, "store"), store.Options{}); err != nil {
		return err
	}
	si.srv, err = server.New(server.Config{Workers: si.cfg.procs, Store: si.st, Journal: filepath.Join(si.dir, "journal")})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	si.base = "http://" + ln.Addr().String()
	si.hs = &http.Server{Handler: si.srv}
	si.served = make(chan error, 1)
	go func() { si.served <- si.hs.Serve(ln) }()
	return nil
}

// stop shuts the listener down, waits for it, and closes journal and
// store. It is a no-op on a stopped instance.
func (si *serveInst) stop() error {
	if si.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := si.hs.Shutdown(ctx)
	<-si.served
	si.hs = nil
	si.client.CloseIdleConnections()
	if e := si.srv.Close(); err == nil {
		err = e
	}
	if e := si.st.Close(); err == nil {
		err = e
	}
	return err
}

func setupServe(cfg *config, tk *track, ly *layers) (instance, time.Duration, error) {
	start := time.Now()
	refs, err := builtinRefs()
	if err != nil {
		return nil, 0, err
	}
	si := &serveInst{cfg: cfg, ly: ly, refs: refs}
	for _, w := range workload.Six() {
		si.names = append(si.names, w.Name)
	}
	si.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: cfg.procs}, Timeout: 2 * time.Minute}
	var prior []serveBatch
	si.schedule, prior = serveSchedule(cfg.seed, cfg.sz)
	if si.dir, err = os.MkdirTemp(cfg.dir, "serve-"); err != nil {
		return nil, 0, err
	}
	// The earlier lifetime: serve the prior tenants once, shut down.
	end := tk.begin(layerServer, "earlier server lifetime (fills the store)", 0)
	err = si.start()
	if err == nil {
		_, err = si.drive(nil, prior)
	}
	if e := si.stop(); err == nil {
		err = e
	}
	end()
	if err != nil {
		si.close()
		return nil, 0, fmt.Errorf("serve.mixed set-up: %w", err)
	}
	// The measured lifetime: reopen the store, replay the journal, listen.
	end = tk.begin(layerServer, "store.Open + server.New + listen", 0)
	err = si.start()
	end()
	if err != nil {
		si.close()
		return nil, 0, err
	}
	return si, time.Since(start), nil
}

func (si *serveInst) close() error {
	err := si.stop()
	if e := os.RemoveAll(si.dir); err == nil {
		err = e
	}
	return err
}

// batchOutcome is one batch as its client saw it.
type batchOutcome struct {
	latency  time.Duration
	overhead time.Duration // latency − the server's own batch wall time
	failed   int           // of its six jobs
	rejected bool          // a non-2xx response
	resp     server.JobResponse
}

// do sends one request and decodes a JSON body into out.
func (si *serveInst) do(method, url, tenant string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set(server.TenantHeader, tenant)
	resp, err := si.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

// batch submits one batch and waits for its results.
func (si *serveInst) batch(tk *track, b serveBatch, job int) (batchOutcome, error) {
	body, err := json.Marshal(server.SubmitRequest{Workloads: si.names, Levels: []int{b.level}})
	if err != nil {
		return batchOutcome{}, err
	}
	var out batchOutcome
	t := time.Now()
	end := tk.begin(layerServer, "POST /v1/jobs", job)
	var sub server.SubmitResponse
	code, err := si.do("POST", si.base+"/v1/jobs", b.tenant, body, &sub)
	end()
	if err == nil && code/100 == 2 {
		end = tk.begin(layerServer, "GET /v1/jobs/{id}?wait=1", job)
		code, err = si.do("GET", si.base+sub.URL+"?wait=1", b.tenant, nil, &out.resp)
		end()
	}
	out.latency = time.Since(t)
	if err != nil {
		return out, err
	}
	if code/100 != 2 {
		out.rejected, out.failed = true, len(si.names)
		return out, nil
	}
	if out.resp.Status != "done" || len(out.resp.Results) != len(si.names) || out.resp.Stats == nil {
		out.failed = len(si.names)
		return out, nil
	}
	out.overhead = out.latency - time.Duration(out.resp.Stats.WallSeconds*float64(time.Second))
	for _, r := range out.resp.Results {
		ref := si.refs[r.Name]
		if r.Error != "" || r.Instructions != ref.Retired || r.BoardCycles != ref.Cycles {
			out.failed++
		}
	}
	return out, nil
}

// drive runs the batches in a closed loop on GOMAXPROCS clients and
// returns the outcomes in schedule order.
func (si *serveInst) drive(main *track, batches []serveBatch) ([]batchOutcome, error) {
	var tr *tracer
	if main != nil {
		tr = main.tr
	}
	defer main.begin(layerIdle, "clients run on tracks 1..n", 0)()
	outcomes := make([]batchOutcome, len(batches))
	errs := make([]error, si.cfg.procs)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < si.cfg.procs; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tk := tr.track(c + 1)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(batches) || errs[c] != nil {
					return
				}
				outcomes[i], errs[c] = si.batch(tk, batches[i], i)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outcomes, nil
}

// round drives the whole schedule once. One batch = one HTTP batch.
func (si *serveInst) round(tk *track) (roundResult, error) {
	t := time.Now()
	outcomes, err := si.drive(tk, si.schedule)
	rr := roundResult{wall: time.Since(t)}
	if err != nil {
		return rr, err
	}
	// Simulated statistics per (program, level): every batch must agree.
	seen := map[string]string{}
	var overheads []float64
	var hits, misses, rejected int64
	for _, o := range outcomes {
		rr.batches = append(rr.batches, o.latency)
		rr.jobs += len(si.names)
		rr.failed += o.failed
		if o.rejected {
			rejected++
		}
		if o.failed == len(si.names) {
			continue
		}
		overheads = append(overheads, ms(o.overhead))
		hits += o.resp.Stats.CacheHits
		misses += o.resp.Stats.CacheMisses
		for _, r := range o.resp.Results {
			if r.Error != "" {
				continue
			}
			rr.insts += r.Instructions
			rr.sim.c6xCycles += r.C6xCycles
			rr.sim.refCycles += r.BoardCycles
			rr.sim.errCycles += abs64(r.GeneratedCycles - r.BoardCycles)
			key := fmt.Sprintf("%s L%d", r.Name, int(r.Level))
			val := fmt.Sprintf("insts=%d ref=%d c6x=%d gen=%d", r.Instructions, r.BoardCycles, r.C6xCycles, r.GeneratedCycles)
			if prev, ok := seen[key]; ok && prev != val {
				rr.failed++
			}
			seen[key] = val
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	hash := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(hash, "%s %s\n", k, seen[k])
	}
	fmt.Fprintf(hash, "insts=%d c6x=%d err=%d\n", rr.insts, rr.sim.c6xCycles, rr.sim.errCycles)
	rr.sim.digest = fmt.Sprintf("%x", hash.Sum(nil))

	si.ly.set("server.http_overhead_ms", median(overheads))
	si.ly.set("server.rejected", float64(rejected))
	si.ly.set("simfarm.cache_hits", float64(hits))
	si.ly.set("simfarm.cache_misses", float64(misses))
	if rr.insts > 0 {
		si.ly.set("core.cpi_c6x", float64(rr.sim.c6xCycles)/float64(rr.insts))
	}
	if tk != nil {
		si.ly.set("simfarm.cache_disk_hits", float64(si.diskHits()))
	}
	return rr, nil
}

// diskHits sums the tenants' disk-tier hits from GET /v1/stats (which
// discloses only the asking tenant's farm).
func (si *serveInst) diskHits() int64 {
	asked := map[string]bool{}
	var total int64
	for _, b := range si.schedule {
		if asked[b.tenant] {
			continue
		}
		asked[b.tenant] = true
		var st server.StatsResponse
		if code, err := si.do("GET", si.base+"/v1/stats", b.tenant, nil, &st); err != nil || code != 200 {
			continue
		}
		for _, t := range st.Tenants {
			total += t.Farm.DiskCacheHits
		}
	}
	return total
}

// probeServe calls directly what a batch reaches only through the
// server: the front-end per program, a warm platform construction, the
// store's put and get, a journal append, and a warm translation-cache
// key.
func probeServe(cfg *config, tk *track, ly *layers, inst instance) error {
	dir, err := os.MkdirTemp(cfg.dir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(filepath.Join(dir, "store"), store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	var pps []*prepared
	var bs buildStats
	var insts int64
	var runWall, put, get time.Duration
	var objectBytes, puts int
	var jobs []simfarm.Job
	for i, w := range workload.Six() {
		for level := core.Level1; level <= core.Level3; level++ {
			pp, err := prepare(tk, program{name: w.Name, source: w.Source, expected: w.Expected}, level, i)
			if err != nil {
				return err
			}
			ly.addPrepared(pp)
			bs.measureBuild(tk, pp, i, buildReps)
			_, wall, err := runOnce(tk, pp, platform.EngineCompiled, i)
			if err != nil {
				return err
			}
			insts += pp.ref.Retired
			runWall += wall
			pps = append(pps, pp)
			jobs = append(jobs, simfarm.Job{Workload: w, Options: core.Options{Level: level}})

			h, err := simfarm.HashELF(pp.elf)
			if err != nil {
				return err
			}
			key := simfarm.ProgramKey(h, core.Options{Level: level})
			for n := 0; n < cfg.sz.probeStoreJournalOps; n++ {
				ns := st.Namespace(fmt.Sprintf("probe%d", n))
				t := time.Now()
				end := tk.begin(layerStore, "store.Store.Store", i)
				err := ns.Store(key, pp.prog)
				end()
				put += time.Since(t)
				if err != nil {
					return err
				}
				t = time.Now()
				end = tk.begin(layerStore, "store.Store.Load", i)
				_, ok, err := ns.Load(key)
				end()
				get += time.Since(t)
				if err != nil || !ok {
					return fmt.Errorf("store probe: load after store: ok=%v err=%v", ok, err)
				}
				puts++
			}
			if data, err := store.EncodeObject(key, pp.prog); err == nil {
				objectBytes += len(data)
			}
		}
	}
	ly.setBuild(&bs)
	ly.set("run.minst_per_s", float64(insts)/runWall.Seconds()/1e6)
	ly.set("store.put_ms", ms(put)/float64(puts))
	ly.set("store.get_ms", ms(get)/float64(puts))
	ly.set("store.object_bytes", float64(objectBytes)/float64(len(pps)))
	probePlatform(cfg, tk, ly, pps)
	probeFarm(cfg, tk, ly, jobs)
	return probeJournal(cfg, tk, ly, dir, jobs)
}

// probeJournal appends records shaped like a finished six-job batch.
func probeJournal(cfg *config, tk *track, ly *layers, dir string, jobs []simfarm.Job) error {
	results, stats := simfarm.New(simfarm.Config{Workers: cfg.procs}).Run(jobs[:6])
	j, err := dist.OpenJournal(filepath.Join(dir, "journal"))
	if err != nil {
		return err
	}
	defer j.Close()
	n := 2 * cfg.sz.probeStoreJournalOps
	t := time.Now()
	for i := 0; i < n; i++ {
		end := tk.begin(layerDist, "dist.Journal.Append", i)
		err := j.Append(dist.Record{Type: dist.RecordFinished, ID: fmt.Sprintf("job-%d", i), Kind: "sweep", Jobs: len(results), Time: time.Now(), Results: results, Stats: &stats})
		end()
		if err != nil {
			return err
		}
	}
	ly.set("dist.journal_append_ms", ms(time.Since(t))/float64(n))
	return nil
}
