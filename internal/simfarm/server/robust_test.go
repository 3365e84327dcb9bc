package server_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simfarm/dist"
	"repro/internal/simfarm/server"
)

// TestHealthEndpoints: /healthz is always 200 (process liveness);
// /readyz flips to 503 once the server drains.
func TestHealthEndpoints(t *testing.T) {
	s, ts, _ := distServer(t, server.Config{})

	get := func(path string) (int, server.HealthResponse) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h server.HealthResponse
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, h
	}

	if code, h := get("/healthz"); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz = %d %+v, want 200 ok", code, h)
	}
	if code, h := get("/readyz"); code != http.StatusOK || h.Status != "ok" || h.Draining {
		t.Fatalf("readyz = %d %+v, want 200 ok", code, h)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if code, h := get("/readyz"); code != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("draining readyz = %d %+v, want 503 draining", code, h)
	}
	// Liveness is unaffected: a draining server must not be restarted.
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("draining healthz = %d, want 200", code)
	}
}

// TestWorkerReregistersAfterServerRestart: a server restart invalidates
// every worker ID (fresh queue). The worker must notice the 410, come
// back with a new registration, and keep executing work — without being
// restarted itself.
func TestWorkerReregistersAfterServerRestart(t *testing.T) {
	// The "restart" swaps a fresh Server behind a stable URL, exactly
	// what a worker sees when the process on the other end bounces.
	var cur atomic.Pointer[server.Server]
	cur.Store(mustNew(t, server.Config{Workers: 4}))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.Load().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	w := startWorker(t, ts.URL, dist.WorkerConfig{Name: "survivor", Poll: 10 * time.Millisecond})
	oldID := w.ID()

	cur.Store(mustNew(t, server.Config{Workers: 4}))

	// The worker's next lease poll gets 410 Gone (the fresh queue's
	// instance nonce makes the old ID unknown) and re-registers; wait
	// until the new server sees it live.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := metrics(t, ts.URL); m["cabt_workers_live"] == "1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never re-registered with the restarted server")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if w.ID() == oldID {
		t.Fatalf("worker kept its pre-restart ID %q", oldID)
	}

	// And it actually executes work for the new server: both tasks. It
	// counts a task once its completion is answered, just after the
	// batch finishes, so wait for the count to settle.
	c := &client{t: t, base: ts.URL, tenant: "", http: http.DefaultClient}
	job := c.submitAndWait(server.SubmitRequest{Workloads: []string{"gcd"}, Levels: []int{0, 1}})
	if job.Stats == nil || job.Stats.Failed != 0 {
		t.Fatalf("post-restart batch: %+v", job)
	}
	for deadline := time.Now().Add(5 * time.Second); w.TasksDone() < 2 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if n := w.TasksDone(); n != 2 {
		t.Fatalf("worker ran %d of the post-restart batch's 2 tasks", n)
	}
}

// TestRottenWorkerCannotFailBatches: a registered worker that fails
// every task it leases costs each task one delivery; an in-process
// lessee re-runs it, and no batch fails.
func TestRottenWorkerCannotFailBatches(t *testing.T) {
	// LeaseTTL 1 min keeps the rotten worker live throughout, so only the
	// failed delivery, not liveness, sends its tasks in-process.
	_, ts, mk := distServer(t, server.Config{Workers: 2, LeaseTTL: time.Minute})
	c := mk("")
	c.http = &http.Client{Timeout: 20 * time.Second}

	evil := newEvilWorker(t, ts.URL)
	for i := 0; i < 3; i++ {
		var sub server.SubmitResponse
		c.do("POST", "/v1/jobs", server.SubmitRequest{Workloads: []string{"gcd"}, Levels: []int{0}}, http.StatusAccepted, &sub)
		evil.post("/v1/workers/"+evil.id+"/complete", dist.TaskResult{TaskID: evil.lease().ID, Err: "rotten worker"}, nil)
		var job server.JobResponse
		c.do("GET", sub.URL+"?wait=1", nil, http.StatusOK, &job)
		if job.Status != "done" || job.Stats.Failed != 0 {
			t.Fatalf("batch %d with a rotten worker: %+v", i, job)
		}
	}
	m := metrics(t, ts.URL)
	if n, _ := strconv.Atoi(m["cabt_queue_retries_total"]); n < 3 {
		t.Errorf("cabt_queue_retries_total = %s, want >= 3", m["cabt_queue_retries_total"])
	}
	if m["cabt_workers_live"] != "1" {
		t.Errorf("cabt_workers_live = %s, want the rotten worker still live", m["cabt_workers_live"])
	}
}
