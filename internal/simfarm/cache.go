package simfarm

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"time"

	"repro/internal/core"
	"repro/internal/elf32"
	"repro/internal/march"
)

// ELFHash is the SHA-256 of a marshalled ELF image: the content address
// of a program's object code.
type ELFHash [sha256.Size]byte

// HashELF content-addresses an assembled ELF image.
func HashELF(f *elf32.File) (ELFHash, error) {
	data, err := f.Marshal()
	if err != nil {
		return ELFHash{}, fmt.Errorf("simfarm: hash elf: %w", err)
	}
	return sha256.Sum256(data), nil
}

// translatorGen is the translation pipeline's generation: it enters
// every ProgramKey unconditionally, so bumping it invalidates all
// cached translations at once. Bump it whenever the translator or a
// downstream engine changes in a way cached core.Programs must not
// survive.
//
// Generation 3: superblock fusion. The fused engine compiles region
// topology and the translator's link-register conventions into direct
// segment chains; programs translated before the fusion contract
// existed must be rebuilt, not replayed.
//
// Generation 4: the translator annotates where it emitted the
// cache-probe routine (core.Program.ProbeRoutine), which the platform
// turns into a fused intrinsic; a program cached without the annotation
// would run without it.
const translatorGen = 4

// Key is the content address of a translated program: ELF contents plus
// a canonical fingerprint of the translation-relevant options.
type Key [sha256.Size]byte

// String renders the key in short hex form for logs.
func (k Key) String() string { return fmt.Sprintf("%x", k[:8]) }

// ProgramKey derives the translation-cache key for translating the
// program addressed by h under opts.
//
// The options fingerprint is canonical: defaults are applied exactly as
// core.Translate applies them (nil Desc → march.Default, zero
// InlineCacheThreshold → 24), and fields that cannot influence the
// translated program at the requested level are omitted. In particular
// the I-cache geometry only enters the key at Level3, the cache-probe
// inlining switches only at Level3, and the correction-drain shape only
// at Level2 and above — so sweeps over those dimensions at lower levels
// hit the cache. Desc.IOWaitCycles is always keyed even though the
// translator ignores it: the platform reads it from the cached program's
// Desc at run time, so two jobs differing in it must not share a
// Program. Desc.ClockHz, Desc.Name and Desc.BoothMul affect only the
// dynamic reference simulators and reporting, never the translated
// program or its platform run, and are excluded.
func ProgramKey(h ELFHash, opts core.Options) Key {
	d := opts.Desc
	if d == nil {
		d = march.Default()
	}
	hs := sha256.New()
	hs.Write(h[:])
	put := func(vs ...uint64) { putUint64(hs, vs...) }
	// The generation stamp is keyed before anything else: a program
	// translated by an older pipeline must never be replayed by a newer
	// engine even when every option matches.
	put(translatorGen, uint64(opts.Level), b2u(opts.InstructionOriented))
	// Static cycle calculation reads the pipeline timings and branch
	// costs at every level except Level0 — but Level0 still schedules
	// through the same binder, so key them unconditionally; they are
	// cheap and never vary spuriously in a sweep.
	put(uint64(d.LoadLat), uint64(d.MulLat), uint64(d.DivBlock))
	put(uint64(d.Branch.NotTakenOK), uint64(d.Branch.TakenOK),
		uint64(d.Branch.Mispredict), uint64(d.Branch.Direct), uint64(d.Branch.Indirect))
	put(b2u(d.BackwardTaken))
	// Like IOWaitCycles, IRQEntryCycles is read from the cached
	// program's Desc at run time (interrupt entry cost).
	put(uint64(d.IOWaitCycles), uint64(d.IRQEntryCycles))
	if opts.Level >= core.Level2 {
		put(b2u(opts.SingleDrainCorrection))
	}
	if opts.Level >= core.Level3 {
		put(uint64(d.ICache.Sets), uint64(d.ICache.Ways),
			uint64(d.ICache.LineBytes), uint64(d.ICache.MissPenalty))
		put(b2u(opts.InlineCacheProbe))
		threshold := opts.InlineCacheThreshold
		if threshold == 0 {
			threshold = 24 // core.Translate's default
		}
		put(uint64(threshold))
	}
	var k Key
	hs.Sum(k[:0])
	return k
}

// referenceKey addresses a reference-simulator run: ELF contents × every
// Desc field the dynamic reference simulator observes (the full
// description: the live I-cache and the Booth multiplier are visible to
// it at any level).
func referenceKey(h ELFHash, d *march.Desc) Key {
	hs := sha256.New()
	hs.Write(h[:])
	putUint64(hs, uint64(d.LoadLat), uint64(d.MulLat), uint64(d.DivBlock),
		uint64(d.Branch.NotTakenOK), uint64(d.Branch.TakenOK),
		uint64(d.Branch.Mispredict), uint64(d.Branch.Direct), uint64(d.Branch.Indirect),
		b2u(d.BackwardTaken)|b2u(d.BoothMul)<<1, uint64(d.IOWaitCycles), uint64(d.IRQEntryCycles),
		uint64(d.ICache.Sets), uint64(d.ICache.Ways), uint64(d.ICache.LineBytes), uint64(d.ICache.MissPenalty))
	var k Key
	hs.Sum(k[:0])
	return k
}

// putUint64 writes each v to hs as 8 little-endian bytes.
func putUint64(hs hash.Hash, vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		hs.Write(b[:])
	}
}

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// ProgramStore is the persistent second level of a TranslationCache —
// implemented by store.Store. Load returns (nil, false, nil) for a plain
// miss; Store persists a freshly translated program. Both must be safe
// for concurrent use.
type ProgramStore interface {
	Load(key [sha256.Size]byte) (*core.Program, bool, error)
	Store(key [sha256.Size]byte, prog *core.Program) error
}

// TranslationCache memoizes core.Translate results under content
// addresses. It is safe for concurrent use; concurrent requests for the
// same key run the translation exactly once (the winner is accounted as
// the miss, every waiter as a hit).
//
// An optional write-through disk level (see NewPersistentTranslationCache)
// makes the cache survive the process: a key absent from memory is looked
// up on disk before translating, and every actual translation is written
// back. A disk-served program counts as a hit (plus DiskHits), since the
// translation work was saved — only a real core.Translate run is a miss.
type TranslationCache struct {
	programs memo[Key, translation]
	disk     ProgramStore // nil = memory only
	lookups  tally        // hits, misses and diskHits only
}

type translation struct {
	prog     *core.Program
	err      error
	fromDisk bool
}

// outcome is how a translation-cache lookup was served.
type outcome int

const (
	memoryHit  outcome = iota
	diskHit            // the first lookup of the key, served by the disk level
	translated         // a miss: core.Translate ran
)

// NewTranslationCache returns an empty, memory-only cache.
func NewTranslationCache() *TranslationCache { return &TranslationCache{} }

// NewPersistentTranslationCache returns a cache backed by the given
// persistent store as a write-through second level. Store errors are
// deliberately non-fatal: a failed write-back or read leaves the cache
// behaving as memory-only for that key (translation correctness never
// depends on the disk). It is handed tenant-derived keys (see tenantKey),
// so it must be a root-namespace view.
func NewPersistentTranslationCache(disk ProgramStore) *TranslationCache {
	return &TranslationCache{disk: disk}
}

// Translate returns the translation of f under opts, running
// core.Translate only on a cache miss. The second result reports whether
// the program came from the cache.
func (c *TranslationCache) Translate(f *elf32.File, opts core.Options) (*core.Program, bool, error) {
	h, err := HashELF(f)
	if err != nil {
		return nil, false, err
	}
	return c.TranslateHashed(h, f, opts)
}

// TranslateHashed is Translate for callers that already hold the ELF
// content hash (the farm memoizes it per assembled workload).
func (c *TranslationCache) TranslateHashed(h ELFHash, f *elf32.File, opts core.Options) (*core.Program, bool, error) {
	prog, o, err := c.translate("", h, f, opts)
	return prog, o != translated, err
}

// translate is TranslateHashed in tenant's key namespace, reporting how
// the lookup was served.
func (c *TranslationCache) translate(tenant string, h ELFHash, f *elf32.File, opts core.Options) (*core.Program, outcome, error) {
	key := tenantKey(tenant, ProgramKey(h, opts))
	lookupStart := time.Now()
	t, first := c.programs.get(key, func() translation {
		if c.disk != nil {
			diskStart := time.Now()
			prog, ok, err := c.disk.Load([sha256.Size]byte(key))
			if err == nil && ok {
				obsCacheDiskHitLat.Observe(time.Since(diskStart).Seconds())
				return translation{prog: prog, fromDisk: true}
			}
			obsCacheDiskMissLat.Observe(time.Since(diskStart).Seconds())
		}
		prog, err := core.Translate(f, opts)
		if c.disk != nil && err == nil {
			c.disk.Store([sha256.Size]byte(key), prog) // best effort; see NewPersistentTranslationCache
		}
		return translation{prog: prog, err: err}
	})
	o := memoryHit
	switch {
	case !first:
		obsCacheMemHit.Inc()
		obsCacheMemLat.Observe(time.Since(lookupStart).Seconds())
	case t.fromDisk:
		o = diskHit
		obsCacheDiskHit.Inc()
	default:
		o = translated
		obsCacheMiss.Inc()
	}
	c.lookups.count(o)
	return t.prog, o, t.err
}

// Hits returns the number of cache hits served so far (memory and disk).
func (c *TranslationCache) Hits() int64 { return c.lookups.hits.Load() }

// Misses returns the number of cache misses (actual translations) so far.
func (c *TranslationCache) Misses() int64 { return c.lookups.misses.Load() }

// DiskHits returns the number of hits served from the persistent store
// rather than process memory.
func (c *TranslationCache) DiskHits() int64 { return c.lookups.diskHits.Load() }

// Persistent reports whether the cache has a disk level.
func (c *TranslationCache) Persistent() bool { return c.disk != nil }

// Len returns the number of distinct programs cached.
func (c *TranslationCache) Len() int { return c.programs.len() }
