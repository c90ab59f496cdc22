package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// testCodec serializes string values only, so tests can probe the
// skip path with any other type.
type testCodec struct{}

func (testCodec) Encode(v any) ([]byte, bool) {
	s, ok := v.(string)
	if !ok {
		return nil, false
	}
	return []byte("S" + s), true
}

func (testCodec) Decode(data []byte) (any, error) {
	if len(data) < 1 || data[0] != 'S' {
		return nil, errors.New("bad payload")
	}
	return string(data[1:]), nil
}

func openTest(t *testing.T, dir, version string) *Store {
	t.Helper()
	s, err := Open(dir, version, testCodec{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// put writes synchronously: Put + Close forces the flush, then the
// handle is reopened. Used where a test needs the entry on disk.
func putSync(t *testing.T, dir, version, key, val string) {
	t.Helper()
	s := openTest(t, dir, version)
	if !s.Put(key, val) {
		t.Fatalf("Put(%q) not accepted", key)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	putSync(t, dir, "v1", "cell-a", "value-a")

	s := openTest(t, dir, "v1")
	v, ok := s.Get("cell-a")
	if !ok || v.(string) != "value-a" {
		t.Fatalf("Get = %v, %v; want value-a, true", v, ok)
	}
	if st := s.Stats(); st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMissAndSkip(t *testing.T) {
	s := openTest(t, t.TempDir(), "v1")
	if _, ok := s.Get("absent"); ok {
		t.Fatal("hit on empty store")
	}
	if s.Put("k", 42) { // int is outside testCodec's set
		t.Fatal("Put accepted unsupported type")
	}
	st := s.Stats()
	if st.Misses != 1 || st.Skipped != 1 || st.Writes != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPutDedupes(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, "v1")
	if !s.Put("k", "v") {
		t.Fatal("first Put rejected")
	}
	// Either still pending or already indexed; both dedupe.
	if s.Put("k", "v") {
		t.Fatal("duplicate Put accepted")
	}
	s.Close()
	s2 := openTest(t, dir, "v1")
	if s2.Put("k", "v") {
		t.Fatal("Put accepted for already-persisted entry")
	}
}

func TestWrongVersionMisses(t *testing.T) {
	dir := t.TempDir()
	putSync(t, dir, "v1", "k", "v")
	s := openTest(t, dir, "v2")
	if _, ok := s.Get("k"); ok {
		t.Fatal("v2 store served a v1 entry")
	}
	// The v1 entry must be untouched: different versions hash to
	// different names, so it is simply not addressed.
	s1 := openTest(t, dir, "v1")
	if _, ok := s1.Get("k"); !ok {
		t.Fatal("v1 entry lost after v2 access")
	}
}

// corrupt each entry file a different way; every one must degrade to
// a miss, be deleted, and count as corrupt.
func TestCorruptEntriesRecovered(t *testing.T) {
	cases := []struct {
		name   string
		mangle func(path string, data []byte) error
	}{
		{"truncated", func(p string, d []byte) error {
			return os.WriteFile(p, d[:len(d)/2], 0o644)
		}},
		{"bitflip", func(p string, d []byte) error {
			d[len(d)/2] ^= 0xff
			return os.WriteFile(p, d, 0o644)
		}},
		{"bad-magic", func(p string, d []byte) error {
			copy(d, "XXXX")
			// Fix the CRC so only the magic check can reject it.
			body := d[:len(d)-4]
			binary.LittleEndian.PutUint32(d[len(d)-4:], crcOf(body))
			return os.WriteFile(p, d, 0o644)
		}},
		{"empty", func(p string, d []byte) error {
			return os.WriteFile(p, nil, 0o644)
		}},
		{"garbage", func(p string, d []byte) error {
			return os.WriteFile(p, []byte("not an entry at all"), 0o644)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			putSync(t, dir, "v1", "k", "v")
			ents, err := os.ReadDir(dir)
			if err != nil || len(ents) != 1 {
				t.Fatalf("ReadDir: %v, %d entries", err, len(ents))
			}
			path := filepath.Join(dir, ents[0].Name())
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.mangle(path, data); err != nil {
				t.Fatal(err)
			}
			s := openTest(t, dir, "v1")
			if _, ok := s.Get("k"); ok {
				t.Fatal("corrupt entry served")
			}
			if st := s.Stats(); st.Corrupt != 1 {
				t.Fatalf("corrupt count = %d, want 1 (%+v)", st.Corrupt, st)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("corrupt entry not deleted: %v", err)
			}
			// Recomputation path: a fresh Put must restore the entry.
			if !s.Put("k", "v") {
				t.Fatal("re-Put after corruption rejected")
			}
			s.Close()
			s2 := openTest(t, dir, "v1")
			if v, ok := s2.Get("k"); !ok || v.(string) != "v" {
				t.Fatalf("recovered Get = %v, %v", v, ok)
			}
		})
	}
}

// A key echo mismatch (file renamed onto another address) must be
// rejected even though magic, version, and CRC all validate.
func TestKeyEchoMismatch(t *testing.T) {
	dir := t.TempDir()
	putSync(t, dir, "v1", "key-a", "value-a")
	s := openTest(t, dir, "v1")
	ents, _ := os.ReadDir(dir)
	old := filepath.Join(dir, ents[0].Name())
	forged := filepath.Join(dir, s.fileName("key-b"))
	if err := os.Rename(old, forged); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openTest(t, dir, "v1")
	if _, ok := s2.Get("key-b"); ok {
		t.Fatal("renamed entry served under the wrong key")
	}
	if st := s2.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt count = %d, want 1", st.Corrupt)
	}
}

func TestConcurrentHandlesOneDir(t *testing.T) {
	dir := t.TempDir()
	const handles, keys = 4, 32
	var wg sync.WaitGroup
	stores := make([]*Store, handles)
	for i := range stores {
		stores[i] = openTest(t, dir, "v1")
	}
	// All handles race to write the same key set; content addressing
	// makes every write of a key byte-identical, so any interleaving
	// of temp-write+rename is safe.
	for _, s := range stores {
		wg.Add(1)
		go func(s *Store) {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				key := fmt.Sprintf("cell-%d", k)
				if v, ok := s.Get(key); ok && v.(string) != "val-"+key {
					t.Errorf("Get(%q) = %v", key, v)
				}
				s.Put(key, "val-"+key)
			}
		}(s)
	}
	wg.Wait()
	for _, s := range stores {
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	s := openTest(t, dir, "v1")
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("cell-%d", k)
		if v, ok := s.Get(key); !ok || v.(string) != "val-"+key {
			t.Fatalf("Get(%q) = %v, %v after concurrent writes", key, v, ok)
		}
	}
	if st := s.Stats(); st.Entries != keys {
		t.Fatalf("entries = %d, want %d", st.Entries, keys)
	}
}

func TestClosedHandle(t *testing.T) {
	s := openTest(t, t.TempDir(), "v1")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("Get hit after Close")
	}
	if s.Put("k", "v") {
		t.Fatal("Put accepted after Close")
	}
}

func TestOpenIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, dir, "v1")
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("foreign file indexed: %+v", st)
	}
}

// crcOf mirrors the entry checksum for the bad-magic fixture.
func crcOf(body []byte) uint32 {
	return crc32.ChecksumIEEE(body)
}

// TestEntryNameShape pins the content-address format: hex SHA-256
// plus the suffix, so directories stay portable across platforms.
func TestEntryNameShape(t *testing.T) {
	s := openTest(t, t.TempDir(), "v1")
	name := s.fileName("some|key")
	if !strings.HasSuffix(name, entrySuffix) || len(name) != 64+len(entrySuffix) {
		t.Fatalf("fileName = %q", name)
	}
	if name == s.fileName("other|key") {
		t.Fatal("distinct keys share a file name")
	}
}

// FuzzStoreEntry: parseEntry never panics, and a record it accepts is
// exactly the one encodeEntry writes for the payload it returns — no
// two byte strings load as the same entry. Each input is a valid
// record with one edit: kept, truncated at at, n bytes at at replaced
// by edit (a splice), or edit appended as a tail; the CRC is then
// re-sealed so the edit reaches the structural checks. Op 4 parses
// edit itself, unsealed.
func FuzzStoreEntry(f *testing.F) {
	f.Add("1", "k", []byte("Sv"), uint8(0), uint16(0), uint8(0), []byte(nil))
	f.Add("1", "k", []byte("Sv"), uint8(1), uint16(9), uint8(0), []byte(nil))
	f.Add("1", "key", []byte("Svalue"), uint8(2), uint16(9), uint8(1), []byte{0xff})
	f.Add("1", "key", []byte("Svalue"), uint8(2), uint16(16), uint8(4), []byte{9, 0, 0, 0, 'S', 'v', 'a', 'l', 'u', 'e', '!', '!', '!'})
	f.Add("1", "key", []byte("Svalue"), uint8(3), uint16(0), uint8(0), []byte("tail"))
	f.Add("v1", "", []byte(nil), uint8(3), uint16(0), uint8(0), []byte{0})
	f.Add("1", "k", []byte(nil), uint8(4), uint16(0), uint8(0), []byte("QBS1\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, version, key string, payload []byte, op uint8, at uint16, n uint8, edit []byte) {
		rec := encodeEntry(version, key, payload)
		body := rec[:len(rec)-4]
		cut := int(at) % (len(body) + 1)
		var data []byte
		switch op % 5 {
		case 0:
			data = body
		case 1:
			data = body[:cut]
		case 2:
			end := min(cut+int(n), len(body))
			data = append(append(append([]byte(nil), body[:cut]...), edit...), body[end:]...)
		case 3:
			data = append(append([]byte(nil), body...), edit...)
		case 4:
			data = edit
		}
		if op%5 != 4 {
			data = binary.LittleEndian.AppendUint32(append([]byte(nil), data...), crcOf(data))
		}
		got, err := parseEntry(data, version, key)
		if err != nil {
			return
		}
		if again := encodeEntry(version, key, got); string(again) != string(data) {
			t.Fatalf("parseEntry accepted %q as payload %q, which encodes as %q", data, got, again)
		}
	})
}
