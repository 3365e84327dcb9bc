package dist

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/simfarm/store"
)

// Remote-tier cache telemetry: the network leg of a worker's
// translation-cache lookup (the memory and disk tiers are counted by
// internal/simfarm; see its obs.go for the tier taxonomy).
var (
	obsRemoteHit = obs.Default.Counter("cabt_cache_requests_total",
		"translation-cache requests by tier and outcome", "tier", "remote", "outcome", "hit")
	obsRemoteMiss = obs.Default.Counter("cabt_cache_requests_total",
		"translation-cache requests by tier and outcome", "tier", "remote", "outcome", "miss")
	obsRemoteHitLat = obs.Default.Histogram("cabt_cache_lookup_seconds",
		"translation-cache lookup latency by tier and outcome", nil,
		"tier", "remote", "outcome", "hit")
	obsRemoteMissLat = obs.Default.Histogram("cabt_cache_lookup_seconds",
		"translation-cache lookup latency by tier and outcome", nil,
		"tier", "remote", "outcome", "miss")
	obsRemotePutsSkipped = obs.Default.Counter("cabt_remote_store_puts_skipped_total",
		"uploads avoided by If-None-Match revalidation (304s observed)")
	obsRemoteDegraded = obs.Default.Counter("cabt_remote_store_degraded_total",
		"store operations short-circuited by the remote-store breaker")
)

// remoteOpTimeout bounds each store-protocol request; a hung server
// costs one deadline per operation, and the breaker below stops paying
// even that once failures persist.
const remoteOpTimeout = 10 * time.Second

// RemoteStore is the worker-side client of the store protocol: a
// simfarm.ProgramStore whose backing levels are an optional local disk
// store and the server's store over HTTP. Together with the in-memory
// TranslationCache above it, a worker has three cache levels — memory,
// local disk, server — each consulted in order and back-filled on a
// hit from below. Keys arrive tenant-derived from the cache above (the
// server never sees a logical key), and objects move as their exact
// on-disk framed bytes, verified end to end on every hop.
type RemoteStore struct {
	base    string // server base URL, no trailing slash
	disk    *store.Store
	client  *http.Client
	breaker *Breaker

	loads, localHits, remoteHits, misses atomic.Int64
	puts, putsSkipped, degraded          atomic.Int64
}

// NewRemoteStore builds a client for the store protocol at baseURL
// (e.g. "http://127.0.0.1:8080"). Keys arrive tenant-derived, so one
// client serves every tenant. disk is an optional local store used as
// a second cache level; client nil means http.DefaultClient.
func NewRemoteStore(baseURL string, disk *store.Store, client *http.Client) *RemoteStore {
	client = faultinject.WrapClient(client)
	for len(baseURL) > 0 && baseURL[len(baseURL)-1] == '/' {
		baseURL = baseURL[:len(baseURL)-1]
	}
	return &RemoteStore{
		base: baseURL, disk: disk, client: client,
		// The store is a cache tier, so degrading is always safe: while
		// the breaker is open every Load is a remote miss (the worker
		// re-translates locally) and every Store skips the upload.
		breaker: NewBreaker("remote-store", BreakerConfig{}),
	}
}

// degrade counts a breaker short-circuit.
func (rs *RemoteStore) degrade() {
	rs.degraded.Add(1)
	obsRemoteDegraded.Inc()
}

// RemoteStoreStats is the client-side traffic snapshot.
type RemoteStoreStats struct {
	Loads       int64 `json:"loads"`
	LocalHits   int64 `json:"local_hits"`
	RemoteHits  int64 `json:"remote_hits"`
	Misses      int64 `json:"misses"`
	Puts        int64 `json:"puts"`
	PutsSkipped int64 `json:"puts_skipped"` // avoided by If-None-Match revalidation
	Degraded    int64 `json:"degraded"`     // short-circuited by the breaker
}

// Stats snapshots the traffic counters.
func (rs *RemoteStore) Stats() RemoteStoreStats {
	return RemoteStoreStats{
		Loads:       rs.loads.Load(),
		LocalHits:   rs.localHits.Load(),
		RemoteHits:  rs.remoteHits.Load(),
		Misses:      rs.misses.Load(),
		Puts:        rs.puts.Load(),
		PutsSkipped: rs.putsSkipped.Load(),
		Degraded:    rs.degraded.Load(),
	}
}

func (rs *RemoteStore) url(dk [sha256.Size]byte) string {
	return rs.base + "/v1/store/" + hex.EncodeToString(dk[:])
}

// Load implements simfarm.ProgramStore: local disk first, then the
// server. A remote hit is verified (the transfer could corrupt) and
// back-filled to the local disk level so the next cold farm on this
// machine never goes over the network for it.
func (rs *RemoteStore) Load(dk [sha256.Size]byte) (*core.Program, bool, error) {
	rs.loads.Add(1)
	if rs.disk != nil {
		if data, ok, err := rs.disk.LoadRaw(dk); err == nil && ok {
			if prog, err := store.DecodeObject(dk, data); err == nil {
				rs.localHits.Add(1)
				return prog, true, nil
			}
		}
	}

	// Network tier, behind the breaker: while it is open a load is just
	// a miss — the farm re-translates locally, correctness unaffected.
	if !rs.breaker.Allow() {
		rs.degrade()
		rs.misses.Add(1)
		obsRemoteMiss.Inc()
		return nil, false, nil
	}
	netStart := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), remoteOpTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rs.url(dk), nil)
	if err != nil {
		rs.breaker.Success() // our bug, not the network's
		return nil, false, fmt.Errorf("remote store: %w", err)
	}
	resp, err := rs.client.Do(req)
	if err != nil {
		rs.breaker.Failure()
		return nil, false, fmt.Errorf("remote store: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 == 5 {
		rs.breaker.Failure()
	} else {
		rs.breaker.Success()
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		rs.misses.Add(1)
		obsRemoteMiss.Inc()
		obsRemoteMissLat.Observe(time.Since(netStart).Seconds())
		return nil, false, nil
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, false, fmt.Errorf("remote store: GET %x: %s: %s", dk[:8], resp.Status, bytes.TrimSpace(body))
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxObjectBytes+1))
	if err != nil {
		return nil, false, fmt.Errorf("remote store: read %x: %w", dk[:8], err)
	}
	prog, err := store.DecodeObject(dk, data)
	if err != nil {
		// A corrupt transfer (or server) is a miss, like a corrupt local
		// object: the worker re-translates and repairs it with a PUT.
		rs.misses.Add(1)
		obsRemoteMiss.Inc()
		obsRemoteMissLat.Observe(time.Since(netStart).Seconds())
		return nil, false, nil
	}
	rs.remoteHits.Add(1)
	obsRemoteHit.Inc()
	obsRemoteHitLat.Observe(time.Since(netStart).Seconds())
	if rs.disk != nil {
		rs.disk.StoreRaw(dk, data) // best effort back-fill
	}
	return prog, true, nil
}

// Store implements simfarm.ProgramStore: encode once, write the local
// disk level, then upload — unless an If-None-Match revalidation says
// the server already holds the object (it is immutable, so any match
// is definitive and the upload is skipped).
func (rs *RemoteStore) Store(dk [sha256.Size]byte, prog *core.Program) error {
	data, err := store.EncodeObject(dk, prog)
	if err != nil {
		return err
	}
	if rs.disk != nil {
		rs.disk.StoreRaw(dk, data) // best effort
	}

	// Uploads degrade cleanly too: an open breaker means the object
	// stays in the local tiers until the store heals.
	if !rs.breaker.Allow() {
		rs.degrade()
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), remoteOpTimeout)
	defer cancel()

	// Revalidate before uploading: a conditional GET with our ETag
	// costs a 304 with no body when the server already has the object.
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rs.url(dk), nil)
	if err != nil {
		rs.breaker.Success()
		return fmt.Errorf("remote store: %w", err)
	}
	req.Header.Set("If-None-Match", etag(dk))
	if resp, err := rs.client.Do(req); err == nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxObjectBytes))
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotModified || resp.StatusCode == http.StatusOK {
			rs.breaker.Success()
			rs.putsSkipped.Add(1)
			obsRemotePutsSkipped.Inc()
			return nil
		}
	}

	put, err := http.NewRequestWithContext(ctx, http.MethodPut, rs.url(dk), bytes.NewReader(data))
	if err != nil {
		rs.breaker.Success()
		return fmt.Errorf("remote store: %w", err)
	}
	put.Header.Set("Content-Type", "application/octet-stream")
	resp, err := rs.client.Do(put)
	if err != nil {
		rs.breaker.Failure()
		return fmt.Errorf("remote store: PUT %x: %w", dk[:8], err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		if resp.StatusCode/100 == 5 {
			rs.breaker.Failure()
		} else {
			rs.breaker.Success()
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("remote store: PUT %x: %s: %s", dk[:8], resp.Status, bytes.TrimSpace(body))
	}
	rs.breaker.Success()
	rs.puts.Add(1)
	return nil
}
