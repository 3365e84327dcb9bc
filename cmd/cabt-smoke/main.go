// Command cabt-smoke is the end-to-end smoke client for cabt-serve: it
// submits a batch over the HTTP API, checks every result bit-for-bit
// against the direct in-process path (repro.Measure, the repository's
// equivalence oracle), then submits the identical batch a second time and
// asserts the warm pass was served from the translation cache. CI runs it
// against a freshly started server with a temp -cache-dir.
//
// With -workers N it additionally spawns N in-process farm workers
// against the server before submitting, so both passes run through the
// distributed path: leased tasks, remote store reads/writes, results
// still bit-identical to repro.Measure. The workers run ephemeral (no
// in-memory cache reuse across tasks), so the warm pass must be served
// by the remote store — the smoke fails if no remote-store hits are
// observed.
//
// Usage:
//
//	cabt-serve -addr 127.0.0.1:8091 -cache-dir /tmp/cache &
//	cabt-smoke -addr http://127.0.0.1:8091 -workloads gcd,sieve -levels 1,3
//	cabt-smoke -addr http://127.0.0.1:8091 -workers 2   # distributed path
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/simfarm/dist"
	"repro/internal/simfarm/server"
	"repro/internal/workload"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "cabt-serve base URL")
	workloadsFlag := flag.String("workloads", "gcd,sieve", "comma-separated workloads to submit")
	levelsFlag := flag.String("levels", "1,3", "comma-separated levels to submit")
	timeout := flag.Duration("timeout", 2*time.Minute, "overall deadline")
	nWorkers := flag.Int("workers", 0, "spawn this many in-process farm workers and smoke the distributed path")
	flag.Parse()

	workloads := strings.Split(*workloadsFlag, ",")
	var levels []int
	for _, p := range strings.Split(*levelsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		check(err)
		levels = append(levels, n)
	}

	client := &http.Client{Timeout: *timeout}
	base := strings.TrimRight(*addr, "/")
	waitReady(client, base, *timeout)

	workers := startWorkers(client, base, *nWorkers, *timeout)

	// Cold pass: submit, wait, verify against the direct path.
	cold := submitAndWait(client, base, workloads, levels)
	verified := 0
	for _, r := range cold.Results {
		if r.Error != "" {
			fatalf("job %s L%d (%s) failed: %s", r.Name, int(r.Level), r.Config, r.Error)
		}
		m, err := repro.Measure(mustWorkload(r.Name), repro.Level(r.Level))
		check(err)
		lr := m.Levels[repro.Level(r.Level)]
		if r.Instructions != m.Instructions || r.BoardCycles != m.BoardCycles ||
			r.C6xCycles != lr.C6xCycles || r.GeneratedCycles != lr.GeneratedCycles {
			fatalf("%s L%d: HTTP result differs from direct path:\n  http   insts=%d board=%d c6x=%d gen=%d\n  direct insts=%d board=%d c6x=%d gen=%d",
				r.Name, int(r.Level), r.Instructions, r.BoardCycles, r.C6xCycles, r.GeneratedCycles,
				m.Instructions, m.BoardCycles, lr.C6xCycles, lr.GeneratedCycles)
		}
		verified++
	}
	fmt.Printf("cabt-smoke: cold pass ok — %d results bit-identical to repro.Measure\n", verified)

	// Warm pass: the same batch again must be served from the cache.
	warm := submitAndWait(client, base, workloads, levels)
	for i := range warm.Results {
		w, c := warm.Results[i], cold.Results[i]
		if w.C6xCycles != c.C6xCycles || w.GeneratedCycles != c.GeneratedCycles {
			fatalf("%s L%d: warm run diverged from cold run", w.Name, int(w.Level))
		}
	}
	if warm.Stats.CacheHits == 0 {
		fatalf("warm pass reported 0 translation-cache hits (stats: %+v)", warm.Stats)
	}
	fmt.Printf("cabt-smoke: warm pass ok — %d/%d jobs were cache hits (%.0f%% hit rate)\n",
		warm.Stats.CacheHits, warm.Stats.Jobs, 100*warm.Stats.CacheHitRate)

	// Distributed path: the workers must have carried the batches, and
	// the warm pass must have been served from the remote store.
	if len(workers) > 0 {
		var done int64
		var st dist.RemoteStoreStats
		for _, w := range workers {
			done += w.TasksDone()
			s := w.StoreStats()
			st.Loads += s.Loads
			st.LocalHits += s.LocalHits
			st.RemoteHits += s.RemoteHits
			st.Misses += s.Misses
			st.Puts += s.Puts
			st.PutsSkipped += s.PutsSkipped
			st.Degraded += s.Degraded
		}
		want := int64(2 * len(cold.Results))
		if done != want {
			fatalf("workers completed %d tasks, want %d (did the server run the batch locally?)", done, want)
		}
		if st.RemoteHits == 0 {
			fatalf("warm pass produced no remote-store hits (store stats: %+v)", st)
		}
		fmt.Printf("cabt-smoke: distributed ok — %d workers ran %d tasks; store: %d remote hits, %d misses, %d puts\n",
			len(workers), done, st.RemoteHits, st.Misses, st.Puts)
	}
}

// startWorkers launches n in-process ephemeral workers and blocks until
// the server reports them all live.
func startWorkers(client *http.Client, base string, n int, timeout time.Duration) []*dist.Worker {
	if n <= 0 {
		return nil
	}
	workers := make([]*dist.Worker, n)
	for i := range workers {
		workers[i] = dist.NewWorker(dist.WorkerConfig{
			Server:    base,
			Name:      fmt.Sprintf("smoke-%d", i+1),
			Client:    client,
			Ephemeral: true,
		})
		go workers[i].Run(context.Background())
	}
	deadline := time.Now().Add(timeout)
	for {
		// The gauge counts exited workers until their heartbeat
		// expires, so it can exceed n: print the n started here.
		if metricValue(client, base, "cabt_workers_live") >= n {
			fmt.Printf("cabt-smoke: %d workers live\n", n)
			return workers
		}
		if time.Now().After(deadline) {
			fatalf("server never reported %d live workers", n)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// metricValue scrapes one integer metric from GET /v1/metrics.
func metricValue(client *http.Client, base, name string) int {
	resp, err := client.Get(base + "/v1/metrics")
	check(err)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatalf("GET /v1/metrics: HTTP %d", resp.StatusCode)
	}
	var body bytes.Buffer
	_, err = body.ReadFrom(resp.Body)
	check(err)
	for _, ln := range strings.Split(body.String(), "\n") {
		if v, ok := strings.CutPrefix(ln, name+" "); ok {
			i, err := strconv.Atoi(strings.TrimSpace(v))
			check(err)
			return i
		}
	}
	fatalf("metric %s not found in /v1/metrics", name)
	return 0
}

// waitReady polls /readyz until the server is ready for traffic.
func waitReady(client *http.Client, base string, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			fatalf("server at %s not ready after %v (last error: %v)", base, timeout, err)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// submitAndWait posts the batch and blocks on ?wait=1 until it is done.
func submitAndWait(client *http.Client, base string, workloads []string, levels []int) server.JobResponse {
	body, err := json.Marshal(server.SubmitRequest{Workloads: workloads, Levels: levels})
	check(err)
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	check(err)
	var sub server.SubmitResponse
	decode(resp, http.StatusAccepted, &sub)

	for {
		resp, err := client.Get(base + sub.URL + "?wait=1")
		check(err)
		var job server.JobResponse
		decode(resp, http.StatusOK, &job)
		if job.Status == "done" {
			if job.Stats == nil {
				fatalf("job %s done without stats", job.ID)
			}
			return job
		}
	}
}

func decode(resp *http.Response, want int, v any) {
	defer resp.Body.Close()
	if resp.StatusCode != want {
		var e server.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		fatalf("HTTP %d (want %d): %s", resp.StatusCode, want, e.Error)
	}
	check(json.NewDecoder(resp.Body).Decode(v))
}

func mustWorkload(name string) workload.Workload {
	wl, ok := repro.WorkloadByName(name)
	if !ok {
		fatalf("unknown workload %q in result", name)
	}
	return wl
}

func check(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cabt-smoke: FAIL: "+format+"\n", args...)
	os.Exit(1)
}
