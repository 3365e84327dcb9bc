package store_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"io/fs"
	"path/filepath"
	"testing"

	"repro/internal/simfarm/store"
)

// FuzzStoreRaw: the object frame is the store's only trust boundary for
// bytes from a remote peer. For any input, StoreRaw either refuses it
// and leaves no new file under objects/, or accepts it and LoadRaw then
// returns exactly those bytes; DecodeObject never panics. With reframe
// set, the input is a payload wrapped in a valid header and checksum, so
// the gob decoder itself meets hostile bytes.
//
//	go test ./internal/simfarm/store -run '^$' -fuzz '^FuzzStoreRaw$' -fuzztime 15s
func FuzzStoreRaw(f *testing.F) {
	dk := key("fuzz")
	valid, err := store.EncodeObject(dk, prog(f))
	if err != nil {
		f.Fatal(err)
	}
	if !bytes.Equal(frame(dk, valid[headerLen:]), valid) {
		f.Fatal("frame disagrees with EncodeObject")
	}
	f.Add(valid, false)
	f.Add(valid[headerLen:], true)
	f.Add(valid[:10], false)
	f.Add(valid[:len(valid)-7], false)
	f.Add([]byte(nil), false)
	for _, at := range []int{0, 8, len(valid) - 1} {
		b := bytes.Clone(valid)
		b[at] ^= 0xFF
		f.Add(b, false)
	}
	garbage := bytes.Clone(valid)
	for i := 90; i < len(garbage); i++ {
		garbage[i] = 0x5A
	}
	f.Add(garbage, false)
	f.Add(garbage[headerLen:], true)

	s := open(f, f.TempDir(), store.Options{})
	f.Fuzz(func(t *testing.T, data []byte, reframe bool) {
		if reframe {
			data = frame(dk, data)
		}
		_, decErr := store.DecodeObject(dk, data)
		before := countFiles(t, s.Dir())
		if err := s.StoreRaw(dk, data); err != nil {
			if decErr == nil {
				t.Fatalf("StoreRaw refused an object DecodeObject accepts: %v", err)
			}
			if after := countFiles(t, s.Dir()); after != before {
				t.Fatalf("refused StoreRaw left files behind: %d -> %d", before, after)
			}
			return
		}
		if decErr != nil {
			t.Fatalf("StoreRaw accepted an object DecodeObject refuses: %v", decErr)
		}
		got, ok, err := s.LoadRaw(dk)
		if err != nil || !ok || !bytes.Equal(got, data) {
			t.Fatalf("LoadRaw after StoreRaw = (%d bytes, ok=%v, err=%v), want the %d stored bytes", len(got), ok, err, len(data))
		}
	})
}

// headerLen mirrors the store's fixed object header: magic, version,
// key, payload length, payload SHA-256.
const headerLen = 8 + 4 + sha256.Size + 8 + sha256.Size

// frame wraps payload in a current-version header addressed to dk.
func frame(dk [sha256.Size]byte, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	b := []byte("CABTOBJ\n")
	b = binary.LittleEndian.AppendUint32(b, store.FormatVersion)
	b = append(b, dk[:]...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	b = append(b, sum[:]...)
	return append(b, payload...)
}

// countFiles counts every file under dir/objects, temp files included.
func countFiles(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(filepath.Join(dir, "objects"), func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			n++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}
