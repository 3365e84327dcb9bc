package dist

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/simfarm"
)

// RecordType labels a journal record.
type RecordType string

// The batch lifecycle: every batch appends Submitted, then exactly one
// of Finished or Failed. Replay folds records by batch ID, so
// duplicates and interleavings are harmless, and a type it does not
// know (older builds wrote "started") names the batch and nothing more.
const (
	RecordSubmitted RecordType = "submitted"
	RecordFinished  RecordType = "finished"
	RecordFailed    RecordType = "failed"
)

// Record is one journal entry. Submitted carries the batch identity and
// shape; Finished carries the full result payload — exactly what
// GET /v1/jobs/{id} serves — so a replayed record answers queries
// bit-identically to the pre-restart server. Failed carries the batch
// error (a batch found Submitted-but-unfinished at replay is failed with
// an "interrupted" error, since its in-memory execution died with the
// old process).
type Record struct {
	Type   RecordType `json:"type"`
	ID     string     `json:"id"`
	Tenant string     `json:"tenant,omitempty"`
	Kind   string     `json:"kind,omitempty"`
	Jobs   int        `json:"jobs,omitempty"`
	// Time is the event time: creation for Submitted, completion for
	// Finished/Failed.
	Time  time.Time `json:"time"`
	Error string    `json:"error,omitempty"`

	Results []simfarm.Result    `json:"results,omitempty"`
	Stats   *simfarm.BatchStats `json:"stats,omitempty"`

	SoCResults []simfarm.SoCResult    `json:"soc_results,omitempty"`
	SoCStats   *simfarm.SoCBatchStats `json:"soc_stats,omitempty"`
}

// journalMagic opens the file; the u32 version after it is negotiated
// explicitly, like the store's object format.
var journalMagic = [8]byte{'C', 'A', 'B', 'T', 'J', 'R', 'N', '\n'}

const journalVersion = 1

// headerSize is the magic-plus-version prefix of the file.
const headerSize = len(journalMagic) + 4

// frameHeaderSize is the per-record frame: payload length (u32 LE) then
// CRC-32 (IEEE) of the payload.
const frameHeaderSize = 8

// maxRecordBytes bounds a single record (a finished sweep of thousands
// of jobs is a few MB of JSON; 256 MB is far beyond any legitimate
// record and keeps a garbage length field from allocating the world).
const maxRecordBytes = 256 << 20

// Journal is the durable batch journal: one append-only file of
// checksum-framed JSON records. Append syncs the file, so a record
// returned to a client as durable survives power loss. Compaction writes
// the surviving records to <path>.tmp and renames it over the journal,
// so a crash at any instant leaves either the old file or the new one.
//
// Opening replays the file and repairs damage by one rule: nothing after
// the first damaged byte is trustworthy, so the file is truncated to its
// last intact record (or restarted empty when the header itself is
// unreadable). There is no rotation: damage at byte X loses everything
// after X however the bytes are split into files, and compaction on open
// is what bounds the file's size. A Journal is safe for concurrent use.
type Journal struct {
	mu   sync.Mutex
	path string
	f    *os.File
	size int64 // bytes of intact records: the append offset

	records  []Record
	repaired int64
}

// OpenJournal opens (creating if needed) the journal file at path and
// replays it. A leftover <path>.tmp of an interrupted compaction is
// removed, an unreadable header restarts the journal empty, and a
// damaged tail is truncated at the last intact record. Only an OS error
// (a directory at path, a missing parent, no permission) fails the open.
func OpenJournal(path string) (*Journal, error) {
	if err := os.Remove(path + ".tmp"); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{path: path, f: f}
	if err := j.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// recover replays the open file, repairs it in place, and leaves the
// file offset at the end of the last intact record.
func (j *Journal) recover() error {
	data, err := os.ReadFile(j.path)
	if err != nil {
		return fmt.Errorf("journal: read: %w", err)
	}
	recs, good, headerOK := scanJournal(data)
	j.repaired = int64(len(data)) - good // all of it when the header is unreadable
	if !headerOK || j.repaired > 0 {
		// Nothing after the first damaged byte is trustworthy; an empty
		// file or an unreadable header restarts the journal empty.
		if !headerOK {
			good = int64(headerSize)
			_, err = j.f.WriteAt(journalHeader(), 0)
		}
		if err == nil {
			err = j.f.Truncate(good)
		}
		if err == nil {
			err = j.f.Sync()
		}
		if err != nil {
			return fmt.Errorf("journal: repair: %w", err)
		}
	}
	if _, err := j.f.Seek(good, io.SeekStart); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.size = good
	j.records = recs
	return syncDir(filepath.Dir(j.path))
}

// scanJournal frames records out of a journal image. It returns the
// decoded records, the offset just past the last intact record, and
// whether the header was valid (an image too short for one reports
// headerOK=false with good 0).
func scanJournal(data []byte) (recs []Record, good int64, headerOK bool) {
	if len(data) < headerSize ||
		string(data[:len(journalMagic)]) != string(journalMagic[:]) ||
		binary.LittleEndian.Uint32(data[len(journalMagic):headerSize]) != journalVersion {
		return nil, 0, false
	}
	off := headerSize
	for off < len(data) {
		rest := data[off:]
		if len(rest) < frameHeaderSize {
			break // torn frame header
		}
		plen := binary.LittleEndian.Uint32(rest[:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if plen == 0 || plen > maxRecordBytes || int(plen) > len(rest)-frameHeaderSize {
			break // absurd or truncated payload
		}
		payload := rest[frameHeaderSize : frameHeaderSize+int(plen)]
		if crc32.ChecksumIEEE(payload) != sum {
			break // corrupt record: nothing after it is trustworthy
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			break // framed but undecodable: same treatment
		}
		off += frameHeaderSize + int(plen)
		recs = append(recs, rec)
	}
	return recs, int64(off), true
}

// journalHeader is the magic-plus-version prefix of a journal file.
func journalHeader() []byte {
	hdr := make([]byte, headerSize)
	copy(hdr, journalMagic[:])
	binary.LittleEndian.PutUint32(hdr[len(journalMagic):], journalVersion)
	return hdr
}

// encodeFrame renders rec as one record frame: length, CRC-32, JSON.
func encodeFrame(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: encode: %w", err)
	}
	frame := make([]byte, frameHeaderSize, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	return append(frame, payload...), nil
}

// syncDir makes directory-entry changes (creates, renames, removes)
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Records returns the records replayed when the journal was opened, or
// written by the last Compact (records appended since are not included —
// the caller already knows them).
func (j *Journal) Records() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Record(nil), j.records...)
}

// Repaired reports how many bytes of damage the open discarded
// (0 = the journal was intact).
func (j *Journal) Repaired() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.repaired
}

var errInjectedSync = errors.New("fsync failed")

// Append durably appends one record: frame (length + CRC-32), payload,
// then fsync, so the record survives a crash the moment Append returns.
// A failed write heals in place — the file is truncated back to its last
// good byte, so one failed append never poisons the next.
func (j *Journal) Append(rec Record) error {
	frame, err := encodeFrame(rec)
	if err != nil {
		return err
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("journal: closed")
	}
	if err := faultinject.ErrAt(faultinject.PointJournalWriteENOSPC, syscall.ENOSPC); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if faultinject.Should(faultinject.PointJournalAppendTorn) {
		// A torn write: part of the frame lands, then the device errors.
		j.f.Write(frame[:len(frame)/2])
		j.healTailLocked()
		return fmt.Errorf("journal: append: %w",
			&faultinject.InjectedError{Point: faultinject.PointJournalAppendTorn, Err: errors.New("torn write")})
	}
	if faultinject.Should(faultinject.PointJournalAppendCrashTorn) {
		// Power loss mid-frame: persist a torn prefix, then die. Recovery
		// must truncate it away. (When CrashFn is overridden in-process,
		// heal and fail the append instead of wedging the journal.)
		j.f.Write(frame[:len(frame)-3])
		j.f.Sync()
		faultinject.CrashFn(faultinject.PointJournalAppendCrashTorn)
		j.healTailLocked()
		return fmt.Errorf("journal: append: %w",
			&faultinject.InjectedError{Point: faultinject.PointJournalAppendCrashTorn, Err: errors.New("crash mid-frame")})
	}
	if _, err := j.f.Write(frame); err != nil {
		j.healTailLocked()
		return fmt.Errorf("journal: append: %w", err)
	}
	if err := faultinject.ErrAt(faultinject.PointJournalSyncErr, errInjectedSync); err != nil {
		j.healTailLocked()
		return fmt.Errorf("journal: sync: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		j.healTailLocked()
		return fmt.Errorf("journal: sync: %w", err)
	}
	faultinject.Crash(faultinject.PointJournalAppendCrashSynced)
	j.size += int64(len(frame))
	return nil
}

// healTailLocked truncates the file back to its last good byte after a
// failed or torn append, so the in-process journal stays consistent
// without a reopen.
func (j *Journal) healTailLocked() {
	j.f.Truncate(j.size)
	j.f.Seek(j.size, io.SeekStart)
}

// Compact atomically rewrites the journal to contain exactly recs (in
// order). The server calls it after replay with the records that
// survived retention, so pruned batches stop being resurrected and the
// journal does not grow across restarts without bound. The survivors
// are written and synced to <path>.tmp, which one rename then puts in
// the journal's place: before the rename the old file is the journal
// (and the next open removes the temp file), after it the new one is.
func (j *Journal) Compact(recs []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("journal: closed")
	}
	tmp := j.path + ".tmp"
	size, err := writeJournalFile(tmp, recs)
	if err == nil {
		faultinject.Crash(faultinject.PointJournalCompactCrashSeg)
		err = os.Rename(tmp, j.path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: compact: %w", err)
	}
	dirErr := syncDir(filepath.Dir(j.path))
	faultinject.Crash(faultinject.PointJournalCompactCrashCommit)

	// The old handle now points at the replaced file: appends must move
	// to the new one, or the journal is closed.
	j.f.Close()
	j.f = nil
	f, err := os.OpenFile(j.path, os.O_RDWR, 0o644)
	if err == nil {
		_, err = f.Seek(size, io.SeekStart)
		if err != nil {
			f.Close()
		}
	}
	if err != nil {
		return fmt.Errorf("journal: compact: reopen: %w", err)
	}
	j.f = f
	j.size = size
	j.records = append([]Record(nil), recs...)
	if dirErr != nil {
		return fmt.Errorf("journal: compact: %w", dirErr)
	}
	return nil
}

// writeJournalFile creates path as a synced journal holding exactly recs
// and returns its size.
func writeJournalFile(path string, recs []Record) (int64, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	buf := journalHeader()
	for _, rec := range recs {
		frame, err := encodeFrame(rec)
		if err != nil {
			f.Close()
			return 0, err
		}
		buf = append(buf, frame...)
	}
	_, err = f.Write(buf)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return int64(len(buf)), err
}

// Close releases the file handle. Records are already durable (Append
// syncs), so Close is a teardown, not a flush point.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
