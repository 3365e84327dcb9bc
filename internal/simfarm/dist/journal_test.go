package dist

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/simfarm"
)

func journalPath(t testing.TB) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "journal.cabt")
}

func openJournal(t testing.TB, path string) *Journal {
	t.Helper()
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func rec(id string, typ RecordType) Record {
	r := Record{
		Type:   typ,
		ID:     id,
		Tenant: "acme",
		Kind:   KindSim,
		Jobs:   2,
		Time:   time.Date(2026, 8, 7, 12, 0, 0, 123456789, time.UTC),
	}
	if typ == RecordFinished {
		r.Results = []simfarm.Result{
			{Index: 0, Name: "gcd", Config: "default", Instructions: 4242, CPI: 1.25, CacheHit: true},
			{Index: 1, Name: "fir", Config: "default", Instructions: 991, DeviationPct: -0.5},
		}
		r.Stats = &simfarm.BatchStats{Jobs: 2, Workers: 3, CacheHits: 1, CacheMisses: 1, CacheHitRate: 0.5}
	}
	return r
}

func appendRec(t testing.TB, j *Journal, r Record) {
	t.Helper()
	if err := j.Append(r); err != nil {
		t.Fatalf("Append: %v", err)
	}
}

func wantRecords(t testing.TB, j *Journal, want []Record) {
	t.Helper()
	got := j.Records()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("record %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := journalPath(t)
	j := openJournal(t, path)
	if j.Repaired() != 0 {
		t.Fatalf("fresh journal reports %d repaired bytes", j.Repaired())
	}
	recs := []Record{
		rec("job-1", RecordSubmitted),
		rec("job-1", RecordType("started")), // older builds wrote it; replay keeps it as identity
		rec("job-2", RecordSubmitted),
		rec("job-1", RecordFinished),
		{Type: RecordFailed, ID: "job-2", Kind: KindSoC, Time: time.Date(2026, 8, 7, 12, 1, 0, 0, time.UTC), Error: "boom"},
	}
	for _, r := range recs {
		appendRec(t, j, r)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2 := openJournal(t, path)
	if j2.Repaired() != 0 {
		t.Fatalf("intact journal reports %d repaired bytes", j2.Repaired())
	}
	wantRecords(t, j2, recs)
}

// seedJournal writes two intact records and returns the file's bytes so
// corruption tests can damage the tail precisely.
func seedJournal(t testing.TB, path string) (data []byte, intact []Record) {
	t.Helper()
	j := openJournal(t, path)
	intact = []Record{rec("job-1", RecordSubmitted), rec("job-1", RecordFinished)}
	for _, r := range intact {
		appendRec(t, j, r)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	return data, intact
}

// frameEnd returns the offset just past record n (0-based) in data.
func frameEnd(data []byte, n int) int {
	off := headerSize
	for i := 0; i <= n; i++ {
		plen := binary.LittleEndian.Uint32(data[off : off+4])
		off += frameHeaderSize + int(plen)
	}
	return off
}

// journalDamages are the damage shapes every open must survive, applied
// to the intact two-record image seedJournal writes.
var journalDamages = []struct {
	name   string
	damage func(data []byte) []byte
	// keep is how many of the two seeded records must survive.
	keep int
	// repaired is whether the open must report discarded bytes (false
	// for damage shapes that are themselves valid states, like an empty
	// file).
	repaired bool
}{
	{"truncated-mid-payload", func(data []byte) []byte {
		return data[:frameEnd(data, 1)-3]
	}, 1, true},
	{"truncated-mid-frame-header", func(data []byte) []byte {
		return data[:frameEnd(data, 0)+5]
	}, 1, true},
	{"empty-file", func(data []byte) []byte {
		return nil
	}, 0, false},
	{"header-only", func(data []byte) []byte {
		return data[:headerSize]
	}, 0, false},
	{"bad-magic", func(data []byte) []byte {
		data[0] ^= 0xff
		return data
	}, 0, true},
	{"wrong-version", func(data []byte) []byte {
		binary.LittleEndian.PutUint32(data[8:], journalVersion+7)
		return data
	}, 0, true},
	{"flipped-payload-bit", func(data []byte) []byte {
		// Flip one bit inside the second record's payload: the CRC must
		// reject it and keep only the first record.
		data[frameEnd(data, 0)+frameHeaderSize+4] ^= 0x01
		return data
	}, 1, true},
	{"garbage-tail", func(data []byte) []byte {
		return append(data, []byte("not a frame at all")...)
	}, 2, true},
	{"garbage-length-field", func(data []byte) []byte {
		// A frame header whose length claims more than the file holds.
		var frame [frameHeaderSize]byte
		binary.LittleEndian.PutUint32(frame[:4], 1<<30)
		return append(data, frame[:]...)
	}, 2, true},
}

// TestJournalCrashRecovery mirrors the translation store's corruption
// suite: every damage shape must recover to the longest intact prefix,
// never an error, and the journal must accept appends afterwards.
func TestJournalCrashRecovery(t *testing.T) {
	for _, tc := range journalDamages {
		t.Run(tc.name, func(t *testing.T) {
			path := journalPath(t)
			data, intact := seedJournal(t, path)
			if err := os.WriteFile(path, tc.damage(append([]byte(nil), data...)), 0o644); err != nil {
				t.Fatalf("write damaged journal: %v", err)
			}

			j := openJournal(t, path)
			wantRecords(t, j, intact[:tc.keep])
			if tc.repaired && j.Repaired() == 0 {
				t.Error("damage repaired but Repaired() == 0")
			}

			// The repaired journal must be fully usable: append, close,
			// reopen, and see prefix + new record with no residual damage.
			extra := rec("job-9", RecordSubmitted)
			appendRec(t, j, extra)
			if err := j.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			j2 := openJournal(t, path)
			if j2.Repaired() != 0 {
				t.Fatalf("journal still damaged after repair: %d bytes", j2.Repaired())
			}
			wantRecords(t, j2, append(append([]Record(nil), intact[:tc.keep]...), extra))
		})
	}
}

// FuzzJournalOpen writes arbitrary bytes as the journal file. The open
// must never fail or panic, and its repair must converge: one append,
// a close and a reopen find no damage and exactly the first replay plus
// the appended record.
func FuzzJournalOpen(f *testing.F) {
	data, _ := seedJournal(f, journalPath(f))
	for _, d := range journalDamages {
		f.Add(d.damage(append([]byte(nil), data...)))
	}
	f.Fuzz(func(t *testing.T, image []byte) {
		path := journalPath(t)
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		j := openJournal(t, path)
		first := j.Records()
		extra := rec("job-fuzz", RecordSubmitted)
		appendRec(t, j, extra)
		if err := j.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		j2 := openJournal(t, path)
		if j2.Repaired() != 0 {
			t.Fatalf("reopen repaired %d bytes", j2.Repaired())
		}
		wantRecords(t, j2, append(first, extra))
	})
}

func TestJournalDuplicateRecordsSurviveReplay(t *testing.T) {
	// The journal itself is append-only and preserves duplicates; replay
	// idempotence (folding by batch ID) is the server's job. Verify the
	// journal's half of the contract: duplicates come back verbatim, in
	// order, so folding is deterministic.
	path := journalPath(t)
	j := openJournal(t, path)
	r := rec("job-1", RecordFinished)
	for range 3 {
		appendRec(t, j, r)
	}
	j.Close()
	wantRecords(t, openJournal(t, path), []Record{r, r, r})
}

func TestJournalCompact(t *testing.T) {
	path := journalPath(t)
	j := openJournal(t, path)
	for i := range 5 {
		appendRec(t, j, rec("job-"+string(rune('1'+i)), RecordSubmitted))
	}
	keep := []Record{rec("job-4", RecordSubmitted), rec("job-5", RecordFinished)}
	if err := j.Compact(keep); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	wantRecords(t, j, keep)

	// The compacted journal must keep accepting appends on the same
	// handle, and a reopen must see compacted + appended records.
	extra := rec("job-6", RecordSubmitted)
	appendRec(t, j, extra)
	j.Close()
	wantRecords(t, openJournal(t, path), append(append([]Record(nil), keep...), extra))

	// Only the journal file remains — no temp file.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != filepath.Base(path) {
			t.Errorf("leftover file %q after compaction", e.Name())
		}
	}
}

// compactCrash runs Compact(keep) on a journal holding old with the
// named crash point armed, the crash turned into a recovered panic, and
// returns the journal path as the crash left it.
func compactCrash(t *testing.T, point string, old, keep []Record) string {
	t.Helper()
	path := journalPath(t)
	j := openJournal(t, path)
	for _, r := range old {
		appendRec(t, j, r)
	}
	oldCrash := faultinject.CrashFn
	faultinject.CrashFn = func(fired string) { panic(fired) }
	faultinject.Activate(faultinject.NewPlan(1, []faultinject.Point{{Name: point, Nth: 1}}))
	defer func() {
		faultinject.Deactivate()
		faultinject.CrashFn = oldCrash
	}()
	func() {
		defer func() {
			if r := recover(); r != point {
				t.Fatalf("Compact did not crash at %s (recovered %v)", point, r)
			}
		}()
		j.Compact(keep)
	}()
	j.Close()
	return path
}

// A compaction that crashed before its commit — the rename — rolls back:
// the old file is still the journal, and the open removes the synced
// temp file.
func TestJournalCompactCrashBeforeCommitRollsBack(t *testing.T) {
	old := []Record{rec("job-1", RecordSubmitted), rec("job-2", RecordSubmitted)}
	path := compactCrash(t, faultinject.PointJournalCompactCrashSeg, old, []Record{rec("job-2", RecordSubmitted)})
	if _, err := os.Stat(path + ".tmp"); err != nil {
		t.Fatalf("crash before the rename left no temp file: %v", err)
	}
	j := openJournal(t, path)
	wantRecords(t, j, old)
	if j.Repaired() != 0 {
		t.Errorf("rollback reported %d repaired bytes", j.Repaired())
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temp file survived recovery")
	}
}

// The mirror image: the rename happened but the process died before the
// journal reopened the new file. The compacted records are the journal.
func TestJournalCompactCrashAfterCommitKeepsCompaction(t *testing.T) {
	keep := []Record{rec("job-new", RecordFinished)}
	path := compactCrash(t, faultinject.PointJournalCompactCrashCommit, []Record{rec("job-old", RecordSubmitted)}, keep)
	j := openJournal(t, path)
	wantRecords(t, j, keep)
	if j.Repaired() != 0 {
		t.Errorf("committed compaction reported %d repaired bytes", j.Repaired())
	}
}

func TestJournalAppendAfterClose(t *testing.T) {
	j := openJournal(t, journalPath(t))
	j.Close()
	if err := j.Append(rec("job-1", RecordSubmitted)); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	if err := j.Compact(nil); err == nil {
		t.Fatal("Compact after Close succeeded")
	}
}
