package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"geographer/internal/core"
)

// backends returns each Store implementation under a fresh state.
func backends(t *testing.T) map[string]Store {
	t.Helper()
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatalf("NewDisk: %v", err)
	}
	return map[string]Store{"memory": NewMemory(), "disk": disk}
}

func TestStoreRoundTrip(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			data := []byte("checkpoint payload \x00\xff binary")
			meta := []byte(`{"k":8}`)
			if err := s.Put("tenant-a", data, meta); err != nil {
				t.Fatalf("Put: %v", err)
			}
			gotData, gotMeta, err := s.Get("tenant-a")
			if err != nil {
				t.Fatalf("Get: %v", err)
			}
			if !bytes.Equal(gotData, data) || !bytes.Equal(gotMeta, meta) {
				t.Fatalf("round trip mismatch: data %q meta %q", gotData, gotMeta)
			}

			// Replacement is total: the second Put wins outright.
			if err := s.Put("tenant-a", []byte("v2"), []byte("m2")); err != nil {
				t.Fatalf("Put v2: %v", err)
			}
			gotData, gotMeta, err = s.Get("tenant-a")
			if err != nil {
				t.Fatalf("Get v2: %v", err)
			}
			if string(gotData) != "v2" || string(gotMeta) != "m2" {
				t.Fatalf("replace mismatch: data %q meta %q", gotData, gotMeta)
			}

			// Empty payloads and metadata are legal.
			if err := s.Put("empty", nil, nil); err != nil {
				t.Fatalf("Put empty: %v", err)
			}
			gotData, gotMeta, err = s.Get("empty")
			if err != nil {
				t.Fatalf("Get empty: %v", err)
			}
			if len(gotData) != 0 || len(gotMeta) != 0 {
				t.Fatalf("empty entry came back non-empty: %q %q", gotData, gotMeta)
			}
		})
	}
}

func TestStoreMissing(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if _, _, err := s.Get("ghost"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get missing: err = %v, want ErrNotFound", err)
			}
			if err := s.Delete("ghost"); err != nil {
				t.Fatalf("Delete missing should be a no-op: %v", err)
			}
			if err := s.Quarantine("ghost"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Quarantine missing: err = %v, want ErrNotFound", err)
			}
		})
	}
}

func TestStoreDelete(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Put("x", []byte("d"), []byte("m")); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete("x"); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Get("x"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get after Delete: err = %v, want ErrNotFound", err)
			}
		})
	}
}

func TestStoreList(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			keys := []string{"zeta", "alpha", "mid"}
			for i, k := range keys {
				if err := s.Put(k, bytes.Repeat([]byte{byte(i)}, i+1), []byte(k+"-meta")); err != nil {
					t.Fatal(err)
				}
			}
			entries, err := s.List()
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"alpha", "mid", "zeta"}
			if len(entries) != len(want) {
				t.Fatalf("List: %d entries, want %d", len(entries), len(want))
			}
			for i, e := range entries {
				if e.Key != want[i] {
					t.Fatalf("List order: got %q at %d, want %q", e.Key, i, want[i])
				}
				if string(e.Meta) != e.Key+"-meta" {
					t.Fatalf("List meta for %q: %q", e.Key, e.Meta)
				}
			}
		})
	}
}

func TestStoreQuarantine(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Put("bad", []byte("d"), nil); err != nil {
				t.Fatal(err)
			}
			if err := s.Quarantine("bad"); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Get("bad"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get after Quarantine: err = %v, want ErrNotFound", err)
			}
			entries, err := s.List()
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 0 {
				t.Fatalf("quarantined entry still listed: %v", entries)
			}
		})
	}
}

// TestDiskCorruption injects every corruption mode the durability fence
// exercises — torn write (truncation), bit flip, trailer strip — and
// asserts each one is a typed ErrCheckpointCorrupt plus a quarantine,
// never a crash or a garbage payload.
func TestDiskCorruption(t *testing.T) {
	payload := bytes.Repeat([]byte("geo-checkpoint-"), 64)
	cases := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"torn-write", func(t *testing.T, path string) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()/2); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flip", func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/3] ^= 0x40
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"trailer-stripped", func(t *testing.T, path string) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-core.ChecksumTrailerSize); err != nil {
				t.Fatal(err)
			}
		}},
		{"emptied", func(t *testing.T, path string) {
			if err := os.Truncate(path, 0); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Put("victim", payload, []byte("meta")); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, d.Path("victim"))
			_, _, err = d.Get("victim")
			if !errors.Is(err, core.ErrCheckpointCorrupt) {
				t.Fatalf("Get corrupt: err = %v, want ErrCheckpointCorrupt", err)
			}
			// Corrupt file is quarantined: gone from the live namespace,
			// preserved under the quarantine name.
			if _, _, err := d.Get("victim"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get after quarantine: err = %v, want ErrNotFound", err)
			}
			q, err := d.Quarantined()
			if err != nil {
				t.Fatal(err)
			}
			if len(q) != 1 || q[0] != "victim" {
				t.Fatalf("Quarantined = %v, want [victim]", q)
			}
			if _, err := os.Stat(d.Path("victim") + ".quarantine"); err != nil {
				t.Fatalf("quarantine file missing: %v", err)
			}
		})
	}
}

// TestDiskListQuarantinesCorrupt pins the crash-recovery scan contract:
// List verifies every entry, returns only the intact ones, and moves
// corrupt ones aside instead of failing the whole scan.
func TestDiskListQuarantinesCorrupt(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"good-a", "bad", "good-b"} {
		if err := d.Put(k, []byte("payload-"+k), []byte("meta-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Truncate(d.Path("bad"), 5); err != nil {
		t.Fatal(err)
	}
	// Stray temp file from an interrupted Put must be ignored, not listed.
	if err := os.WriteFile(filepath.Join(d.Dir(), "stray.tmp-123"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := d.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Key != "good-a" || entries[1].Key != "good-b" {
		t.Fatalf("List = %+v, want good-a,good-b", entries)
	}
	q, err := d.Quarantined()
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 1 || q[0] != "bad" {
		t.Fatalf("Quarantined = %v, want [bad]", q)
	}
}

// TestDiskKeyEscaping pins the injective filename mapping: hostile key
// bytes stay inside the spill directory and survive a List round trip.
func TestDiskKeyEscaping(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{
		"plain-key_09",
		"../escape/attempt",
		".hidden",
		"sp ace/and%percent",
		"unicode-é世",
	}
	for _, k := range keys {
		p := d.Path(k)
		if filepath.Dir(p) != d.Dir() {
			t.Fatalf("key %q escapes the spill dir: %q", k, p)
		}
		if base := filepath.Base(p); strings.ContainsAny(base[:len(base)-len(".ckpt")], "./ ") {
			t.Fatalf("key %q produced unsafe stem %q", k, base)
		}
		if err := d.Put(k, []byte("data:"+k), []byte("meta:"+k)); err != nil {
			t.Fatalf("Put %q: %v", k, err)
		}
	}
	entries, err := d.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(keys) {
		t.Fatalf("List: %d entries, want %d", len(entries), len(keys))
	}
	seen := map[string]bool{}
	for _, e := range entries {
		seen[e.Key] = true
		data, meta, err := d.Get(e.Key)
		if err != nil {
			t.Fatalf("Get %q: %v", e.Key, err)
		}
		if string(data) != "data:"+e.Key || string(meta) != "meta:"+e.Key {
			t.Fatalf("key %q: payload mismatch %q %q", e.Key, data, meta)
		}
	}
	for _, k := range keys {
		if !seen[k] {
			t.Fatalf("key %q lost in List round trip", k)
		}
	}
}

// TestDiskSurvivesReopen pins durability across a process boundary:
// a second Disk over the same directory sees everything the first wrote.
func TestDiskSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	d1, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Put("persisted", []byte("bytes"), []byte("meta")); err != nil {
		t.Fatal(err)
	}
	d2, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, meta, err := d2.Get("persisted")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "bytes" || string(meta) != "meta" {
		t.Fatalf("reopen mismatch: %q %q", data, meta)
	}
}

func TestKeyCodecInverse(t *testing.T) {
	for _, k := range []string{"", "abc", "a.b/c", "%", "%%", "%2F", "\x00\xff"} {
		enc := encodeKey(k)
		dec, err := decodeKey(enc)
		if err != nil {
			t.Fatalf("decodeKey(encodeKey(%q)) = err %v", k, err)
		}
		if dec != k {
			t.Fatalf("codec not inverse: %q -> %q -> %q", k, enc, dec)
		}
	}
	for _, bad := range []string{"%", "%2", "%ZZ"} {
		if _, err := decodeKey(bad); err == nil {
			t.Fatalf("decodeKey(%q) accepted malformed escape", bad)
		}
	}
}

// encodeFrame assembles the unsealed spill frame in one buffer, field
// by field from the format in disk.go: the oracle that Put's separate
// head, payload and trailer writes are compared with.
func encodeFrame(data, meta []byte) []byte {
	buf := make([]byte, 0, 24+len(meta)+len(data)+core.ChecksumTrailerSize)
	buf = binary.LittleEndian.AppendUint32(buf, spillMagic)
	buf = binary.LittleEndian.AppendUint32(buf, spillVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(meta)))
	buf = append(buf, meta...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(data)))
	buf = append(buf, data...)
	return buf
}

// putPayload is a deterministic payload of n bytes.
func putPayload(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*131 + i>>9)
	}
	return data
}

// TestDiskPutBytes: the file Put leaves is exactly the sealed frame
// assembled in one buffer, for empty, short and large payloads, with
// and without meta.
func TestDiskPutBytes(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{0, 13, 4 << 20} {
		for _, meta := range [][]byte{nil, []byte(`{"k":16,"p":1}`)} {
			data := putPayload(size)
			if err := d.Put("entry", data, meta); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(d.Path("entry"))
			if err != nil {
				t.Fatal(err)
			}
			if want := core.SealChecksum(encodeFrame(data, meta)); !bytes.Equal(got, want) {
				t.Fatalf("payload %d bytes, meta %q: file of %d bytes differs from the sealed frame of %d",
					size, meta, len(got), len(want))
			}
		}
	}
}

// TestDiskPutAllocFence: Put streams the caller's payload to the file
// and never copies it, so a 4 MB put allocates only the frame head,
// file handles and paths.
func TestDiskPutAllocFence(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := putPayload(4 << 20)
	meta := []byte(`{"k":16,"p":1}`)
	// TotalAlloc is process-wide: the fewest bytes over three puts drops
	// what other goroutines allocated meanwhile.
	got := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err := d.Put("entry", data, meta)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("Put of a %d-byte payload allocated %d bytes", len(data), got)
	if got >= 64<<10 {
		t.Errorf("Put of a %d-byte payload allocated %d bytes, want under 64 KiB", len(data), got)
	}
}
