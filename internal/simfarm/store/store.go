package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
)

// FormatVersion is the on-disk object format version. Objects written
// with a different version are treated as misses and rebuilt, never
// parsed: the payload is a gob stream of core.Program, whose layout the
// repository does not promise across versions.
//
// Version 2: core.Program gained interrupt metadata (BlockInfo.Leader,
// Program.IRQEntry) that older objects decode as zero values — which
// would silently disable interrupt delivery — so they must be rebuilt.
//
// Version 3: superblock fusion (and the generation stamp in
// simfarm.ProgramKey). Pre-fusion objects decode cleanly but were keyed
// without the translator generation; refusing their format version
// guarantees none of them replays into the fused engine even through a
// store populated before the key change.
//
// Version 4: core.Program.ProbeRoutine. An older Level-3 object decodes
// with the annotation zero and would run correctly but without the
// cache-probe intrinsic — silently at half speed — so it is rebuilt.
const FormatVersion = 4

// tempGrace is how old a .tmp-* file under objects/ must be before a
// rescan removes it as the leftover of an interrupted write. A younger
// one may be a sibling process's write between its sync and its rename.
const tempGrace = 10 * time.Minute

// magic opens every object file. Eight bytes, never versioned: version
// negotiation happens in the explicit version field that follows it.
var magic = [8]byte{'C', 'A', 'B', 'T', 'O', 'B', 'J', '\n'}

// headerSize is the fixed object header: magic, format version (u32 LE),
// key (32), payload length (u64 LE), payload SHA-256 (32).
const headerSize = 8 + 4 + sha256.Size + 8 + sha256.Size

// Options configure Open.
type Options struct {
	// MaxBytes is the garbage-collection budget for object payload+header
	// bytes; when a write pushes the store past it, least-recently-used
	// objects are evicted until it fits. 0 means no budget (never GC).
	MaxBytes int64
}

// Store is a content-addressed, on-disk cache of translated programs.
// Object files live under dir/objects/<aa>/<64-hex-key>, written with a
// temp-file+rename so a crash can never leave a half-written object under
// its final name; every read verifies the header and a payload checksum,
// and anything that fails verification is deleted and reported as a miss,
// so the worst corruption costs one re-translation.
//
// A Store is safe for concurrent use within a process. Across processes,
// content addressing makes sharing safe by construction: two writers of
// the same key write identical payloads, and rename is atomic, so readers
// see either a complete old object or a complete new one.
type Store struct {
	ns string
	st *state
}

// state is shared between a Store and its Namespace views.
type state struct {
	dir      string
	maxBytes int64

	// index is the in-memory view of objects/, rebuilt from it by every
	// Open and GC; it serves the byte budget, eviction and Stats.
	mu    sync.Mutex
	index map[[sha256.Size]byte]*entry
	bytes int64

	loads     atomic.Int64
	hits      atomic.Int64
	puts      atomic.Int64
	evictions atomic.Int64
	corrupt   atomic.Int64
}

// entry is one object's index record.
type entry struct {
	Size     int64 // file size in bytes (header + payload)
	LastUsed int64 // unix nanoseconds of the last load or store; the file's mtime
}

// Stats is a point-in-time snapshot of a store's contents and traffic.
type Stats struct {
	Dir       string `json:"dir"`
	Namespace string `json:"namespace,omitempty"`
	Objects   int    `json:"objects"`
	Bytes     int64  `json:"bytes"`
	Loads     int64  `json:"loads"`
	Hits      int64  `json:"hits"`
	Puts      int64  `json:"puts"`
	Evictions int64  `json:"evictions"`
	Corrupt   int64  `json:"corrupt"`
}

// Open opens (creating if needed) the store rooted at dir and learns
// what it holds by scanning dir/objects, with file modification times as
// the LRU order. Nothing else is read: the objects directory is the
// store's only record of its contents.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	st := &state{dir: dir, maxBytes: opts.MaxBytes}
	if err := st.rescan(); err != nil {
		return nil, err
	}
	return &Store{st: st}, nil
}

// Namespace returns a view of the same store whose keys are scoped to ns.
// The view shares the index, budget and counters with its parent; only
// the key derivation differs, so distinct namespaces can never observe
// each other's objects even for identical logical keys. ns "" returns the
// root view.
func (s *Store) Namespace(ns string) *Store { return &Store{ns: ns, st: s.st} }

// DeriveKey maps a logical key into namespace ns's on-disk key. It is a
// pure function of (ns, key), so any process — a remote worker included —
// computes the same on-disk address for the same logical object; the
// remote store protocol (internal/simfarm/dist) addresses objects by this
// derived key. ns "" is the root namespace (the identity derivation).
func DeriveKey(ns string, key [sha256.Size]byte) [sha256.Size]byte {
	if ns == "" {
		return key
	}
	h := sha256.New()
	io.WriteString(h, "cabt-store-namespace\x00")
	io.WriteString(h, ns)
	h.Write([]byte{0})
	h.Write(key[:])
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// derive maps a logical key into the namespace-scoped on-disk key.
func (s *Store) derive(key [sha256.Size]byte) [sha256.Size]byte {
	return DeriveKey(s.ns, key)
}

// objectPath returns the sharded path of an on-disk key.
func (st *state) objectPath(key [sha256.Size]byte) string {
	hx := hex.EncodeToString(key[:])
	return filepath.Join(st.dir, "objects", hx[:2], hx)
}

// Load reads the program stored under key. A missing object is (nil,
// false, nil); an object that fails verification (truncated, wrong magic
// or version, checksum or key mismatch, undecodable payload) is deleted,
// counted as corrupt, and also reported as a plain miss — the caller
// re-translates and the next Store repairs the file.
func (s *Store) Load(key [sha256.Size]byte) (*core.Program, bool, error) {
	_, prog, ok, err := s.st.loadObject(s.derive(key))
	return prog, ok, err
}

// LoadRaw reads the complete verified framed object stored under the
// on-disk key dk (already namespace-derived — see DeriveKey; LoadRaw
// never derives). It returns the exact file bytes, so the remote store
// protocol serves objects byte-identically to what was written, and a
// worker's local cache level stores what it fetched without a re-encode.
// Verification, quarantine and traffic accounting are identical to Load.
func (s *Store) LoadRaw(dk [sha256.Size]byte) ([]byte, bool, error) {
	data, _, ok, err := s.st.loadObject(dk)
	return data, ok, err
}

// loadObject reads, verifies and decodes the object at the on-disk key.
func (st *state) loadObject(dk [sha256.Size]byte) ([]byte, *core.Program, bool, error) {
	st.loads.Add(1)
	path := st.objectPath(dk)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		// Heal any stale index entry (the object may have been evicted
		// or removed by another process since the last scan).
		st.mu.Lock()
		if e, ok := st.index[dk]; ok {
			st.bytes -= e.Size
			delete(st.index, dk)
		}
		st.mu.Unlock()
		return nil, nil, false, nil
	}
	if err != nil {
		return nil, nil, false, fmt.Errorf("store: load %x: %w", dk[:8], err)
	}
	prog, err := DecodeObject(dk, data)
	if err != nil {
		st.quarantine(dk, path, err)
		return nil, nil, false, nil
	}
	st.hits.Add(1)
	st.touch(dk, path, int64(len(data)))
	return data, prog, true, nil
}

// Store writes prog under key. The object is first written completely
// (and synced) to a temporary file in the same directory, then renamed
// into place, so concurrent readers and crashes only ever see complete
// objects. Storing an already-present key rewrites it idempotently.
func (s *Store) Store(key [sha256.Size]byte, prog *core.Program) error {
	dk := s.derive(key)
	data, err := EncodeObject(dk, prog)
	if err != nil {
		return err
	}
	return s.st.writeObject(dk, data)
}

// StoreRaw writes a complete framed object under the on-disk key dk
// (already namespace-derived; StoreRaw never derives). The bytes are
// verified end to end — framing, embedded key, checksum, decodable
// payload — before anything touches the disk, so a remote peer can never
// plant an object that Load would later quarantine.
func (s *Store) StoreRaw(dk [sha256.Size]byte, data []byte) error {
	if _, err := DecodeObject(dk, data); err != nil {
		return fmt.Errorf("store: raw object %x does not verify: %w", dk[:8], err)
	}
	return s.st.writeObject(dk, data)
}

// writeObject atomically installs framed object bytes at their on-disk
// key: complete write (and sync) to a temp file in the same directory,
// then rename, so concurrent readers and crashes only ever see complete
// objects.
func (st *state) writeObject(dk [sha256.Size]byte, data []byte) error {
	path := st.objectPath(dk)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if ferr := faultinject.ErrAt(faultinject.PointStoreWriteENOSPC, syscall.ENOSPC); ferr != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: store %x: %w", dk[:8], ferr)
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: store %x: %w", dk[:8], werr)
	}
	st.puts.Add(1)
	st.touch(dk, path, int64(len(data)))
	st.enforceBudget(dk)
	return nil
}

// touch marks the object at dk used now, in the index and in the file's
// mtime, which is the LRU clock every later Open and GC read back. A
// load or write that raced an eviction must not resurrect the victim's
// entry, so an absent entry is only added if the object file still
// exists (eviction removes the file under the same lock that removes
// the entry, so the stat under the lock observes a consistent pair).
func (st *state) touch(dk [sha256.Size]byte, path string, size int64) {
	now := time.Now()
	os.Chtimes(path, now, now) // best effort: a failure costs recency after a restart
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.index[dk]
	if !ok {
		if _, err := os.Stat(path); err != nil {
			return
		}
		e = &entry{}
		st.index[dk] = e
	}
	st.bytes += size - e.Size
	e.Size = size
	e.LastUsed = now.UnixNano()
}

// quarantine removes an object that failed verification.
func (st *state) quarantine(dk [sha256.Size]byte, path string, cause error) {
	st.corrupt.Add(1)
	os.Remove(path)
	st.mu.Lock()
	if e, ok := st.index[dk]; ok {
		st.bytes -= e.Size
		delete(st.index, dk)
	}
	st.mu.Unlock()
	_ = cause // surfaced via Stats.Corrupt; the caller rebuilds the object
}

// enforceBudget evicts least-recently-used objects until the store fits
// its byte budget. The just-written key is never evicted, so a store
// smaller than one object still serves the write-through read.
func (st *state) enforceBudget(keep [sha256.Size]byte) {
	if st.maxBytes <= 0 {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.evictLocked(&keep, 0)
}

// evictLocked removes objects under st.mu: first everything not used
// since cutoff (when cutoff > 0), then least-recently-used objects until
// the store fits its byte budget. keep (when non-nil) is never evicted.
// Index entry and object file are removed under one lock hold, so a
// concurrent Load can never observe the entry gone but the file present
// (or re-index a file that is about to disappear — see touch).
func (st *state) evictLocked(keep *[sha256.Size]byte, cutoff int64) (evicted int, freed int64) {
	type victim struct {
		key [sha256.Size]byte
		e   *entry
	}
	var vs []victim
	for k, e := range st.index {
		if keep != nil && k == *keep {
			continue
		}
		vs = append(vs, victim{k, e})
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i].e.LastUsed < vs[j].e.LastUsed })
	for _, v := range vs {
		stale := cutoff > 0 && v.e.LastUsed < cutoff
		over := st.maxBytes > 0 && st.bytes > st.maxBytes
		if !stale && !over {
			if cutoff <= 0 {
				break // LRU order: once within budget, the rest stays
			}
			continue // keep scanning for stale entries
		}
		st.bytes -= v.e.Size
		freed += v.e.Size
		delete(st.index, v.key)
		os.Remove(st.objectPath(v.key))
		st.evictions.Add(1)
		evicted++
	}
	return evicted, freed
}

// GCResult summarizes one garbage-collection sweep.
type GCResult struct {
	Evicted    int   `json:"evicted"`
	FreedBytes int64 `json:"freed_bytes"`
	Objects    int   `json:"objects"` // objects remaining after the sweep
	Bytes      int64 `json:"bytes"`   // bytes remaining after the sweep
}

// GC sweeps the store now: the index is first rebuilt from the objects
// directory — picking up objects written by other processes sharing
// it, which writes alone never see — then objects not used within
// maxAge are evicted (maxAge 0 disables the age rule), then
// least-recently-used objects until the byte budget is met. File mtimes
// are the cross-process LRU clock (every load and write sets them), so
// the rescan keeps recency intact.
// cmd/cabt-serve runs GC from a background ticker and exposes it at
// POST /v1/admin/gc.
func (s *Store) GC(maxAge time.Duration) GCResult {
	st := s.st
	var cutoff int64
	if maxAge > 0 {
		cutoff = time.Now().Add(-maxAge).UnixNano()
	}
	// A rescan failure (e.g. an unreadable directory) degrades to
	// sweeping this process's own view, never to skipping the sweep.
	_ = st.rescan()
	st.mu.Lock()
	evicted, freed := st.evictLocked(nil, cutoff)
	objects, bytes := len(st.index), st.bytes
	st.mu.Unlock()
	return GCResult{Evicted: evicted, FreedBytes: freed, Objects: objects, Bytes: bytes}
}

// StartSweeper garbage-collects the store every interval (with the
// given maxAge) until the returned stop function is called. Stop is
// idempotent.
func (s *Store) StartSweeper(interval, maxAge time.Duration) (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.GC(maxAge)
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// Stats snapshots the store.
func (s *Store) Stats() Stats {
	st := s.st
	st.mu.Lock()
	objects, bytes := len(st.index), st.bytes
	st.mu.Unlock()
	return Stats{
		Dir:       st.dir,
		Namespace: s.ns,
		Objects:   objects,
		Bytes:     bytes,
		Loads:     st.loads.Load(),
		Hits:      st.hits.Load(),
		Puts:      st.puts.Load(),
		Evictions: st.evictions.Load(),
		Corrupt:   st.corrupt.Load(),
	}
}

// Close does nothing and returns nil: every object is complete on disk
// once Store returns, and the objects directory is the whole record of
// the store, so there is nothing to flush or release.
func (s *Store) Close() error { return nil }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.st.dir }

// --- object encoding ---

// EncodeObject frames a gob-encoded program: header (magic, version, key,
// payload length, payload SHA-256) then payload. The key is part of the
// header so a file renamed to the wrong address fails verification. dk is
// the on-disk (namespace-derived) key; the framed bytes are what Store
// writes, LoadRaw returns and the remote store protocol carries.
func EncodeObject(dk [sha256.Size]byte, prog *core.Program) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(prog); err != nil {
		return nil, fmt.Errorf("store: encode program: %w", err)
	}
	sum := sha256.Sum256(payload.Bytes())
	buf := make([]byte, 0, headerSize+payload.Len())
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, FormatVersion)
	buf = append(buf, dk[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(payload.Len()))
	buf = append(buf, sum[:]...)
	buf = append(buf, payload.Bytes()...)
	return buf, nil
}

// DecodeObject verifies framed object bytes end to end (magic, version,
// embedded key, length, payload checksum) and decodes the program. Every
// return path that is not a fully verified program is an error; callers
// treat any error as corruption.
func DecodeObject(dk [sha256.Size]byte, data []byte) (*core.Program, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("truncated header: %d bytes", len(data))
	}
	if !bytes.Equal(data[:8], magic[:]) {
		return nil, errors.New("bad magic")
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != FormatVersion {
		return nil, fmt.Errorf("format version %d, want %d", v, FormatVersion)
	}
	if !bytes.Equal(data[12:44], dk[:]) {
		return nil, errors.New("key mismatch")
	}
	plen := binary.LittleEndian.Uint64(data[44:52])
	payload := data[headerSize:]
	if uint64(len(payload)) != plen {
		return nil, fmt.Errorf("truncated payload: %d bytes, want %d", len(payload), plen)
	}
	sum := sha256.Sum256(payload)
	if !bytes.Equal(data[52:84], sum[:]) {
		return nil, errors.New("payload checksum mismatch")
	}
	prog := new(core.Program)
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(prog); err != nil {
		return nil, fmt.Errorf("decode program: %w", err)
	}
	return prog, nil
}

// --- directory scan ---

// rescan rebuilds the index from the objects directory: every well-named
// object file becomes an entry (content verification stays lazy, in
// Load) with its mtime as its LRU time, and temp files older than
// tempGrace, left by interrupted writes, are removed. Live entries the
// walk missed survive while their file exists.
func (st *state) rescan() error {
	tempCutoff := time.Now().Add(-tempGrace)
	index := map[[sha256.Size]byte]*entry{}
	var total int64
	root := filepath.Join(st.dir, "objects")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		name := d.Name()
		if strings.HasPrefix(name, ".tmp-") {
			if info.ModTime().Before(tempCutoff) {
				os.Remove(path)
			}
			return nil
		}
		raw, err := hex.DecodeString(name)
		if err != nil || len(raw) != sha256.Size {
			return nil // not an object; leave foreign files alone
		}
		var k [sha256.Size]byte
		copy(k[:], raw)
		index[k] = &entry{Size: info.Size(), LastUsed: info.ModTime().UnixNano()}
		total += info.Size()
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: rescan: %w", err)
	}
	// Merge rather than swap: an object put after the walk passed its
	// directory is in the live index and on disk but not in the walk, and
	// must stay visible to the budget and Stats.
	st.mu.Lock()
	for k, e := range st.index {
		if _, ok := index[k]; ok {
			continue
		}
		if _, err := os.Stat(st.objectPath(k)); err == nil {
			index[k] = e
			total += e.Size
		}
	}
	st.index, st.bytes = index, total
	st.mu.Unlock()
	return nil
}
