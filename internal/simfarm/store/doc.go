// Package store persists translated programs on disk under their content
// addresses, so farm runs share translation work across processes: the
// in-memory simfarm.TranslationCache uses a Store as its write-through
// second level, and any process pointed at the same directory (a second
// cabt-farm sweep, the cabt-serve HTTP service, the benchmark harness)
// reuses every program translated before it.
//
// # Layout
//
//	<dir>/objects/<aa>/<key>    one object per 64-hex-digit content address,
//	                            sharded by the first byte; its mtime is
//	                            the object's last use
//
// The objects directory is the store's only record of what it holds.
// Open and every GC scan it, taking each file's size and mtime; the
// in-memory index they build serves the byte budget, eviction and
// Stats, and is never written anywhere. Every load and write sets the
// object's mtime, so LRU order survives a restart, a crash included,
// and is shared by every process on the directory. A scan removes temp
// files older than ten minutes, left by interrupted writes, and spares
// younger ones, which may be another process's write in flight.
//
// Each object file is a fixed header — magic, format version, the
// object's own key, payload length, payload SHA-256 — followed by a
// gob-encoded core.Program. Writes go to a temp file in the destination
// directory, are synced, then renamed into place, so a final-name object
// is always complete. Content addressing makes concurrent writers
// harmless: the same key always carries the same payload.
//
// # Failure model
//
// Every load re-verifies the header, the embedded key, and the payload
// checksum, and decodes defensively; a file that fails any check is
// deleted and reported as an ordinary miss, so corruption (truncation,
// bit rot, a foreign or renamed file, an old format version) costs one
// re-translation, never a crash. There is no second record to fall out
// of step with the objects: an index.json left by an older build is
// ignored.
//
// # Eviction and namespaces
//
// A byte budget (Options.MaxBytes) bounds the store: writes that push it
// past the budget evict least-recently-used objects. DeriveKey folds a
// tenant name into a content address (Store.Namespace is a view that
// applies it), so tenants sharing one directory can never observe each
// other's objects — the isolation the cabt-serve multi-tenant API
// builds on: its farm hands the store keys already derived this way.
package store
