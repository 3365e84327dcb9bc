package dist

import (
	"crypto/sha256"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/simfarm/store"
	"repro/internal/tc32asm"
	"repro/internal/workload"
)

// testProgram translates one workload once per test binary.
var testProgram = sync.OnceValues(func() (*core.Program, error) {
	w, ok := workload.ByName("gcd")
	if !ok {
		panic("no gcd workload")
	}
	f, err := tc32asm.Assemble(w.Source)
	if err != nil {
		return nil, err
	}
	return core.Translate(f, core.Options{Level: core.Level1})
})

func prog(t *testing.T) *core.Program {
	t.Helper()
	p, err := testProgram()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func logicalKey(s string) [sha256.Size]byte { return sha256.Sum256([]byte(s)) }

// progCycles runs a program on the platform; equal cycle counts are the
// round-trip equivalence criterion that matters to the farm.
func progCycles(t *testing.T, p *core.Program) (int64, int64) {
	t.Helper()
	sys := platform.New(p)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	return st.C6xCycles, st.GeneratedCycles
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// storeServer spins up a StoreServer over a fresh store and returns
// both plus the test server's base URL.
func storeServer(t *testing.T) (*store.Store, *StoreServer, string) {
	t.Helper()
	st := openStore(t, t.TempDir())
	ss := NewStoreServer(st)
	mux := http.NewServeMux()
	ss.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return st, ss, srv.URL
}

func TestRemoteStoreRoundTrip(t *testing.T) {
	_, ss, base := storeServer(t)
	p := prog(t)
	k := logicalKey("remote-round-trip")

	// The cache above a RemoteStore hands it tenant-derived keys.
	acme := store.DeriveKey("acme", k)
	up := NewRemoteStore(base, nil, nil)
	if err := up.Store(acme, p); err != nil {
		t.Fatalf("Store: %v", err)
	}
	if st := up.Stats(); st.Puts != 1 || st.PutsSkipped != 0 {
		t.Fatalf("uploader stats %+v, want 1 put", st)
	}

	// A different client (different machine in production) loads it.
	down := NewRemoteStore(base, nil, nil)
	got, ok, err := down.Load(acme)
	if err != nil || !ok {
		t.Fatalf("Load = (_, %v, %v), want hit", ok, err)
	}
	wc6x, wgen := progCycles(t, p)
	gc6x, ggen := progCycles(t, got)
	if gc6x != wc6x || ggen != wgen {
		t.Fatalf("round-tripped program runs (%d, %d) cycles, want (%d, %d)", gc6x, ggen, wc6x, wgen)
	}
	if st := down.Stats(); st.RemoteHits != 1 || st.Misses != 0 {
		t.Fatalf("downloader stats %+v, want 1 remote hit", st)
	}

	// Namespaces isolate tenants: the same logical key under another
	// tenant is a miss.
	if _, ok, err := down.Load(store.DeriveKey("globex", k)); err != nil || ok {
		t.Fatalf("cross-tenant Load = (_, %v, %v), want miss", ok, err)
	}

	// Storing again revalidates with If-None-Match and skips the upload.
	if err := up.Store(acme, p); err != nil {
		t.Fatalf("re-Store: %v", err)
	}
	if st := up.Stats(); st.Puts != 1 || st.PutsSkipped != 1 {
		t.Fatalf("uploader stats %+v, want the second store skipped", st)
	}
	sst := ss.Stats()
	if sst.NotModified == 0 {
		t.Fatalf("server stats %+v, want a 304", sst)
	}
	if sst.Puts != 1 {
		t.Fatalf("server stats %+v, want exactly 1 accepted put", sst)
	}
}

func TestRemoteStoreLocalDiskLevel(t *testing.T) {
	_, _, base := storeServer(t)
	p := prog(t)
	k := logicalKey("disk-level")

	// Seed the server through a diskless client.
	if err := NewRemoteStore(base, nil, nil).Store(k, p); err != nil {
		t.Fatal(err)
	}

	disk := openStore(t, t.TempDir())
	rs := NewRemoteStore(base, disk, nil)

	// First load: remote hit, back-filled to disk.
	if _, ok, err := rs.Load(k); err != nil || !ok {
		t.Fatalf("Load = (_, %v, %v)", ok, err)
	}
	// Second load: served from the local disk level.
	if _, ok, err := rs.Load(k); err != nil || !ok {
		t.Fatalf("second Load = (_, %v, %v)", ok, err)
	}
	st := rs.Stats()
	if st.RemoteHits != 1 || st.LocalHits != 1 {
		t.Fatalf("stats %+v, want 1 remote + 1 local hit", st)
	}

	// The disk level alone can satisfy a fresh client offline: point one
	// at a dead server with the same disk.
	dead := NewRemoteStore("http://127.0.0.1:0", disk, nil)
	if _, ok, err := dead.Load(k); err != nil || !ok {
		t.Fatalf("offline Load = (_, %v, %v), want local hit", ok, err)
	}
}

func TestRemoteStoreMiss(t *testing.T) {
	_, ss, base := storeServer(t)
	rs := NewRemoteStore(base, nil, nil)
	if _, ok, err := rs.Load(logicalKey("absent")); err != nil || ok {
		t.Fatalf("Load = (_, %v, %v), want clean miss", ok, err)
	}
	if st := rs.Stats(); st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st := ss.Stats(); st.Misses != 1 {
		t.Fatalf("server stats %+v", st)
	}
}

func TestRemoteStoreRejectsCorruptTransfer(t *testing.T) {
	// A server (or proxy) handing back garbage must read as a miss, not
	// a poisoned program: the client verifies the framed bytes itself.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("CABTOBJ\nthis is not a framed object"))
	}))
	defer srv.Close()
	rs := NewRemoteStore(srv.URL, nil, nil)
	if _, ok, err := rs.Load(logicalKey("corrupt")); err != nil || ok {
		t.Fatalf("Load of corrupt transfer = (_, %v, %v), want miss", ok, err)
	}
}

func TestStoreServerRejectsBadPut(t *testing.T) {
	st, ss, base := storeServer(t)
	dk := store.DeriveKey("", logicalKey("bad-put"))
	rs := NewRemoteStore(base, nil, nil)

	req, _ := http.NewRequest(http.MethodPut, rs.url(dk), http.NoBody)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty PUT = %s, want 400", resp.Status)
	}
	if ss.Stats().BadPuts != 1 {
		t.Fatalf("server stats %+v", ss.Stats())
	}
	// Nothing was planted.
	if _, ok, _ := st.LoadRaw(dk); ok {
		t.Fatal("bad PUT left an object behind")
	}
}

func TestStoreServerRejectsBadKey(t *testing.T) {
	_, _, base := storeServer(t)
	for _, path := range []string{"/v1/store/zz", "/v1/store/" + strings.Repeat("zq", 32)} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %q = %s, want 400", path, resp.Status)
		}
	}
}
