package store_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

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

func prog(t testing.TB) *core.Program {
	t.Helper()
	p, err := testProgram()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func key(s string) [sha256.Size]byte { return sha256.Sum256([]byte(s)) }

// cycles runs a program on the platform; equal cycle counts are the
// round-trip equivalence criterion that matters to the farm.
func cycles(t *testing.T, p *core.Program) (int64, int64) {
	t.Helper()
	sys := platform.New(p)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	return st.C6xCycles, st.GeneratedCycles
}

func open(t testing.TB, dir string, opts store.Options) *store.Store {
	t.Helper()
	s, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustStore(t *testing.T, s *store.Store, k [sha256.Size]byte, p *core.Program) {
	t.Helper()
	if err := s.Store(k, p); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, store.Options{})
	p := prog(t)
	k := key("round-trip")

	if got, ok, err := s.Load(k); err != nil || ok || got != nil {
		t.Fatalf("empty store Load = (%v, %v, %v), want (nil, false, nil)", got, ok, err)
	}
	mustStore(t, s, k, p)

	// Same handle, then a fresh process-equivalent handle.
	for i, ld := range []*store.Store{s, open(t, dir, store.Options{})} {
		got, ok, err := ld.Load(k)
		if err != nil || !ok {
			t.Fatalf("load[%d] = (ok=%v, err=%v)", i, ok, err)
		}
		if got.Level != p.Level || got.TotalSrcInsts != p.TotalSrcInsts || len(got.Blocks) != len(p.Blocks) {
			t.Fatalf("load[%d]: metadata mismatch", i)
		}
		wc6x, wgen := cycles(t, p)
		gc6x, ggen := cycles(t, got)
		if gc6x != wc6x || ggen != wgen {
			t.Fatalf("load[%d]: cycles (%d,%d) != original (%d,%d)", i, gc6x, ggen, wc6x, wgen)
		}
	}
	st := s.Stats()
	if st.Objects != 1 || st.Puts != 1 || st.Hits != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// objectPath finds the single object file under dir.
func objectPath(t *testing.T, dir string) string {
	t.Helper()
	var paths []string
	filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			paths = append(paths, path)
		}
		return nil
	})
	if len(paths) != 1 {
		t.Fatalf("found %d objects, want 1", len(paths))
	}
	return paths[0]
}

// TestCorruptionTolerated is the crash-safety contract: every damaged
// shape of an object file is detected, quarantined and reported as a
// miss, and a subsequent Store repairs it.
func TestCorruptionTolerated(t *testing.T) {
	p := prog(t)
	k := key("corruption")
	corruptions := []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"truncated-header", func(b []byte) []byte { return b[:10] }},
		{"truncated-payload", func(b []byte) []byte { return b[:len(b)-7] }},
		{"empty", func(b []byte) []byte { return nil }},
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		{"wrong-version", func(b []byte) []byte { b[8] = 0xEE; return b }},
		{"flipped-payload-bit", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }},
		{"garbage-payload-valid-length", func(b []byte) []byte {
			for i := 90; i < len(b); i++ {
				b[i] = 0x5A
			}
			return b
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := open(t, dir, store.Options{})
			mustStore(t, s, k, p)
			path := objectPath(t, dir)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mangle(data), 0o644); err != nil {
				t.Fatal(err)
			}

			// A fresh open (no memory of the put) must see a plain miss.
			s2 := open(t, dir, store.Options{})
			got, ok, err := s2.Load(k)
			if err != nil || ok || got != nil {
				t.Fatalf("corrupt Load = (%v, %v, %v), want (nil, false, nil)", got, ok, err)
			}
			if st := s2.Stats(); st.Corrupt != 1 {
				t.Fatalf("Corrupt = %d, want 1 (stats %+v)", st.Corrupt, st)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt object not quarantined: %v", err)
			}

			// The store must rebuild, not stay poisoned.
			mustStore(t, s2, k, p)
			if _, ok, err := s2.Load(k); err != nil || !ok {
				t.Fatalf("rebuilt Load = (ok=%v, err=%v)", ok, err)
			}
		})
	}
}

// TestStaleFormatVersionRejected is the translator-generation
// invalidation contract: an object written by a previous format version
// is internally consistent — good magic, matching key, valid length and
// checksum — yet must never decode, because its key was derived without
// the current translator generation and the cached program predates the
// fused engine's contract. Unlike random corruption, this is the exact
// shape of every object in a store populated before the version bump.
// The stale payload here is what the previous version wrote for a
// Level-3 program: everything but the probe-routine annotation. Decoded,
// it would run correctly and silently without the probe intrinsic.
func TestStaleFormatVersionRejected(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, store.Options{})
	w, _ := workload.ByName("gcd")
	f, err := tc32asm.Assemble(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Translate(f, core.Options{Level: core.Level3})
	if err != nil {
		t.Fatal(err)
	}
	stale := *p
	stale.ProbeRoutine = core.PacketRange{}
	k := key("stale-generation")
	mustStore(t, s, k, &stale)

	// Rewrite only the format version field to the previous generation.
	// The payload checksum does not cover the header, so the file stays
	// exactly as self-consistent as a genuine old-format object.
	path := objectPath(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[8:12], store.FormatVersion-1)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// The verifier must name the version mismatch, not a generic failure.
	if _, err := store.DecodeObject(k, data); err == nil ||
		!strings.Contains(err.Error(), "format version") {
		t.Fatalf("DecodeObject(stale) err = %v, want format-version mismatch", err)
	}

	// A fresh open must treat the stale object as a miss, quarantine it,
	// and let the next Store rebuild it under the current version.
	s2 := open(t, dir, store.Options{})
	if got, ok, err := s2.Load(k); err != nil || ok || got != nil {
		t.Fatalf("stale Load = (%v, %v, %v), want (nil, false, nil)", got, ok, err)
	}
	if st := s2.Stats(); st.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1 (stats %+v)", st.Corrupt, st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("stale object not quarantined: %v", err)
	}
	mustStore(t, s2, k, p)
	got, ok, err := s2.Load(k)
	if err != nil || !ok {
		t.Fatalf("rebuilt Load = (ok=%v, err=%v)", ok, err)
	}
	sys := platform.New(got)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if got.ProbeRoutine != p.ProbeRoutine || sys.CPU.EngineStats().IntrinsicRuns == 0 {
		t.Fatalf("rebuilt program: probe routine %+v (want %+v), %d probe-op runs",
			got.ProbeRoutine, p.ProbeRoutine, sys.CPU.EngineStats().IntrinsicRuns)
	}
}

// TestKeyMismatchDetected: an object renamed to another address (or a
// colliding foreign file) fails the embedded-key check.
func TestKeyMismatchDetected(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, store.Options{})
	mustStore(t, s, key("original"), prog(t))
	data, err := os.ReadFile(objectPath(t, dir))
	if err != nil {
		t.Fatal(err)
	}

	other := key("somewhere-else")
	otherPath := keyPath(dir, other)
	if err := os.MkdirAll(filepath.Dir(otherPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(otherPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Load(other); err != nil || ok {
		t.Fatalf("renamed object Load = (ok=%v, err=%v), want miss", ok, err)
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1", st.Corrupt)
	}
}

// keyPath is the object file of root-namespace key k under dir.
func keyPath(dir string, k [sha256.Size]byte) string {
	hx := hex.EncodeToString(k[:])
	return filepath.Join(dir, "objects", hx[:2], hx)
}

// setMtime sets the LRU time of k's object file, as a load at t would.
func setMtime(t *testing.T, dir string, k [sha256.Size]byte, at time.Time) {
	t.Helper()
	if err := os.Chtimes(keyPath(dir, k), at, at); err != nil {
		t.Fatal(err)
	}
}

// TestIndexRecovery: an index.json left by an older build is ignored
// in every shape — absent, garbage, wrong version, truncated, or lying
// (listing an absent key and omitting a present one). Open learns the
// store's contents from objects/ alone, and nothing rewrites the file.
func TestIndexRecovery(t *testing.T) {
	p := prog(t)
	a, b, ghost := key("a"), key("b"), key("ghost")
	lying := fmt.Sprintf(`{"version":1,"entries":[{"key":"%x","size":1,"last_used":1},{"key":"%x","size":1,"last_used":2}]}`, a, ghost)
	for _, tc := range []struct {
		name  string
		index string // "" leaves no index.json
	}{
		{"missing", ""},
		{"garbage", "{not json"},
		{"wrong-version", `{"version":99,"entries":[]}`},
		{"truncated", lying[:len(lying)/2]},
		{"lying", lying},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := open(t, dir, store.Options{})
			mustStore(t, s, a, p)
			mustStore(t, s, b, p)
			want := s.Stats().Bytes
			ip := filepath.Join(dir, "index.json")
			if tc.index != "" {
				if err := os.WriteFile(ip, []byte(tc.index), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			s2 := open(t, dir, store.Options{})
			if st := s2.Stats(); st.Objects != 2 || st.Bytes != want {
				t.Fatalf("reopened store: %d objects, %d bytes, want 2, %d (stats %+v)", st.Objects, st.Bytes, want, st)
			}
			for _, k := range [][sha256.Size]byte{a, b} {
				if _, ok, err := s2.Load(k); err != nil || !ok {
					t.Fatalf("reopened Load = (ok=%v, err=%v)", ok, err)
				}
			}
			if _, ok, _ := s2.Load(ghost); ok {
				t.Fatal("a key only the index lists resolved")
			}
			mustStore(t, s2, key("c"), p)
			s2.GC(0)
			data, err := os.ReadFile(ip)
			if tc.index == "" && !os.IsNotExist(err) || tc.index != "" && string(data) != tc.index {
				t.Fatalf("index.json touched: %q, %v", data, err)
			}
		})
	}
}

// TestRescanRemovesTempFiles: every Open sweeps the leftovers of
// interrupted writes and never mistakes them for objects, but spares a
// fresh temp file, which may be a sibling process's write in flight.
func TestRescanRemovesTempFiles(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, store.Options{})
	mustStore(t, s, key("a"), prog(t))
	stale := filepath.Join(dir, "objects", "ab", ".tmp-interrupted")
	fresh := filepath.Join(dir, "objects", "ab", ".tmp-in-flight")
	if err := os.MkdirAll(filepath.Dir(stale), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{stale, fresh} {
		if err := os.WriteFile(path, []byte("partial object write"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	hourAgo := time.Now().Add(-time.Hour)
	if err := os.Chtimes(stale, hourAgo, hourAgo); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, store.Options{})
	if st := s2.Stats(); st.Objects != 1 {
		t.Fatalf("Objects = %d, want 1", st.Objects)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived rescan: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("in-flight temp file removed by rescan: %v", err)
	}
}

// TestLoadRecencySurvivesRestart: a load's recency outlives the process
// even when it ends without Close (a crash or kill -9): the reopened
// store evicts the object loaded longest ago, not the one stored first.
func TestLoadRecencySurvivesRestart(t *testing.T) {
	p := prog(t)
	probe := open(t, t.TempDir(), store.Options{})
	mustStore(t, probe, key("probe"), p)
	budget := store.Options{MaxBytes: 2 * probe.Stats().Bytes}

	dir := t.TempDir()
	s := open(t, dir, budget)
	mustStore(t, s, key("a"), p)
	mustStore(t, s, key("b"), p)
	setMtime(t, dir, key("a"), time.Now().Add(-2*time.Hour))
	setMtime(t, dir, key("b"), time.Now().Add(-time.Hour))
	if _, ok, err := s.Load(key("a")); err != nil || !ok {
		t.Fatalf("Load(a) = (ok=%v, err=%v)", ok, err)
	}

	s2 := open(t, dir, budget)
	mustStore(t, s2, key("c"), p)
	if _, err := os.Stat(keyPath(dir, key("b"))); !os.IsNotExist(err) {
		t.Fatalf("least recently used b survived: %v", err)
	}
	for _, k := range []string{"a", "c"} {
		if _, ok, err := s2.Load(key(k)); err != nil || !ok {
			t.Fatalf("object %q evicted (ok=%v, err=%v)", k, ok, err)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, store.Options{})
	p := prog(t)
	mustStore(t, s, key("probe"), p)
	objSize := s.Stats().Bytes

	// Budget for two objects; the third put evicts the least recently
	// used, which is "a" after "a" then "b" are written.
	dir2 := t.TempDir()
	s2 := open(t, dir2, store.Options{MaxBytes: 2 * objSize})
	mustStore(t, s2, key("a"), p)
	mustStore(t, s2, key("b"), p)
	mustStore(t, s2, key("c"), p)

	st := s2.Stats()
	if st.Evictions != 1 || st.Objects != 2 || st.Bytes > 2*objSize {
		t.Fatalf("stats after eviction = %+v", st)
	}
	if _, ok, _ := s2.Load(key("a")); ok {
		t.Fatal("LRU object 'a' survived eviction")
	}
	for _, k := range []string{"b", "c"} {
		if _, ok, err := s2.Load(key(k)); err != nil || !ok {
			t.Fatalf("object %q evicted unexpectedly (ok=%v, err=%v)", k, ok, err)
		}
	}

	// A load refreshes recency: touch "b", store "d", expect "c" evicted.
	if _, ok, _ := s2.Load(key("b")); !ok {
		t.Fatal("b missing")
	}
	mustStore(t, s2, key("d"), p)
	if _, ok, _ := s2.Load(key("c")); ok {
		t.Fatal("eviction ignored LRU order: c should have been evicted")
	}
	if _, ok, _ := s2.Load(key("b")); !ok {
		t.Fatal("recently used b was evicted")
	}
}

func TestNamespaceIsolation(t *testing.T) {
	dir := t.TempDir()
	root := open(t, dir, store.Options{})
	a, b := root.Namespace("tenant-a"), root.Namespace("tenant-b")
	p := prog(t)
	k := key("shared-logical-key")

	mustStore(t, root, k, p)
	if _, ok, _ := a.Load(k); ok {
		t.Fatal("tenant-a sees root object")
	}
	mustStore(t, a, k, p)
	if _, ok, _ := b.Load(k); ok {
		t.Fatal("tenant-b sees tenant-a object")
	}
	if _, ok, err := a.Load(k); err != nil || !ok {
		t.Fatalf("tenant-a misses its own object (ok=%v, err=%v)", ok, err)
	}
	if _, ok, err := root.Load(k); err != nil || !ok {
		t.Fatalf("root misses its own object (ok=%v, err=%v)", ok, err)
	}
	// Same logical key, two namespaces = two physical objects.
	if st := root.Stats(); st.Objects != 2 {
		t.Fatalf("Objects = %d, want 2", st.Objects)
	}
}

func TestConcurrentAccess(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, store.Options{})
	p := prog(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				k := key(string(rune('a' + i%4)))
				if g%2 == 0 {
					if err := s.Store(k, p); err != nil {
						t.Error(err)
						return
					}
				} else if _, _, err := s.Load(k); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < 4; i++ {
		if _, ok, err := s.Load(key(string(rune('a' + i)))); err != nil || !ok {
			t.Fatalf("object %d missing after concurrent writes (ok=%v, err=%v)", i, ok, err)
		}
	}
}
