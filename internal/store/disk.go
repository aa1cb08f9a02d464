package store

// Disk backend: one sealed file per entry under a spill directory.
//
// File frame (all little-endian, then core.SealChecksum over the
// whole of it):
//
//	u32 magic "GEOD" | u32 version | u64 metaLen | meta | u64 dataLen | data | [checksum trailer]
//
// Durability protocol. Put writes the sealed frame to a temp file in
// the same directory, fsyncs it, renames it over the final name, and
// fsyncs the directory — so a crash at any instant leaves either the
// old entry or the new one, never a torn file under the live name (a
// torn temp file is ignored by List and overwritten by the next Put).
// Every read re-verifies the CRC32-C trailer; a file that fails — torn
// by an external writer, bit-flipped, truncated — is quarantined
// (renamed to <name>.quarantine, preserved for postmortem) and the
// read returns a typed core.ErrCheckpointCorrupt. Corruption is an
// error surface, never a panic.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"geographer/internal/core"
)

// spillMagic guards a spill frame ("GEOD").
const spillMagic = 0x47454F44

// spillVersion is the current spill frame format.
const spillVersion = 1

// spillExt and quarantineExt name the live and quarantined spill files.
const (
	spillExt      = ".ckpt"
	quarantineExt = ".ckpt.quarantine"
)

// Disk is the durable Store: one sealed, checksummed file per entry.
type Disk struct {
	dir string
}

// NewDisk opens (creating if needed) a disk store rooted at dir.
func NewDisk(dir string) (*Disk, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty spill directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Disk{dir: dir}, nil
}

// Dir returns the spill directory.
func (d *Disk) Dir() string { return d.dir }

// Path returns the file a key is (or would be) stored at. Exported so
// fault-injection harnesses can corrupt spills the way real storage
// would.
func (d *Disk) Path(key string) string {
	return filepath.Join(d.dir, encodeKey(key)+spillExt)
}

// quarantinePath is where Quarantine moves a corrupt entry.
func (d *Disk) quarantinePath(key string) string {
	return filepath.Join(d.dir, encodeKey(key)+quarantineExt)
}

// encodeKey maps an arbitrary key to a safe file stem: bytes outside
// [A-Za-z0-9_-] are percent-escaped (including '%' itself and '.', so
// no key can produce a dotfile, a path separator, or an ambiguous
// stem). The mapping is injective; decodeKey inverts it.
func encodeKey(key string) string {
	var b strings.Builder
	for i := 0; i < len(key); i++ {
		c := key[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '-' {
			b.WriteByte(c)
		} else {
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String()
}

// decodeKey inverts encodeKey; malformed escapes report an error.
func decodeKey(stem string) (string, error) {
	var b strings.Builder
	for i := 0; i < len(stem); i++ {
		c := stem[i]
		if c != '%' {
			b.WriteByte(c)
			continue
		}
		if i+2 >= len(stem) {
			return "", fmt.Errorf("store: truncated escape in %q", stem)
		}
		var v byte
		if _, err := fmt.Sscanf(stem[i+1:i+3], "%02X", &v); err != nil {
			return "", fmt.Errorf("store: bad escape in %q", stem)
		}
		b.WriteByte(v)
		i += 2
	}
	return b.String(), nil
}

// frameHead builds the spill frame up to its payload: magic, version,
// the length-prefixed meta and the payload's length prefix.
func frameHead(meta []byte, dataLen int) []byte {
	buf := make([]byte, 0, 24+len(meta))
	buf = binary.LittleEndian.AppendUint32(buf, spillMagic)
	buf = binary.LittleEndian.AppendUint32(buf, spillVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(meta)))
	buf = append(buf, meta...)
	return binary.LittleEndian.AppendUint64(buf, uint64(dataLen))
}

// decodeFrame parses a verified (trailer-stripped) spill frame.
func decodeFrame(payload []byte) (data, meta []byte, err error) {
	corrupt := func(format string, args ...any) ([]byte, []byte, error) {
		return nil, nil, fmt.Errorf("%w: %s", core.ErrCheckpointCorrupt, fmt.Sprintf(format, args...))
	}
	if len(payload) < 16 {
		return corrupt("spill frame of %d bytes", len(payload))
	}
	if m := binary.LittleEndian.Uint32(payload); m != spillMagic {
		return corrupt("bad spill magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(payload[4:]); v != spillVersion {
		return nil, nil, fmt.Errorf("%w: spill frame v%d, want v%d", core.ErrCheckpointVersion, v, spillVersion)
	}
	rest := payload[8:]
	metaLen := binary.LittleEndian.Uint64(rest)
	rest = rest[8:]
	if metaLen > uint64(len(rest)) {
		return corrupt("meta length %d exceeds remaining %d bytes", metaLen, len(rest))
	}
	meta = rest[:metaLen]
	rest = rest[metaLen:]
	if len(rest) < 8 {
		return corrupt("truncated before data length")
	}
	dataLen := binary.LittleEndian.Uint64(rest)
	rest = rest[8:]
	if dataLen != uint64(len(rest)) {
		return corrupt("data length %d for %d remaining bytes", dataLen, len(rest))
	}
	return rest, meta, nil
}

// Put atomically replaces the entry: sealed frame → temp file → fsync →
// rename → directory fsync. The frame is never assembled: its head, the
// caller's payload and the checksum trailer (chained over head and
// payload) go to the temp file as three writes, so a put copies nothing
// the size of the payload.
func (d *Disk) Put(key string, data, meta []byte) error {
	head := frameHead(meta, len(data))
	trailer := core.ChecksumTrailer(head, data)
	final := d.Path(key)
	tmp, err := os.CreateTemp(d.dir, encodeKey(key)+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	for _, part := range [][]byte{head, data, trailer[:]} {
		if _, err := tmp.Write(part); err != nil {
			tmp.Close()
			return fmt.Errorf("store: put %s: %w", key, err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: put %s: fsync: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	return d.syncDir()
}

// syncDir fsyncs the spill directory so a completed rename survives a
// host crash. Best-effort on filesystems that reject directory fsync.
func (d *Disk) syncDir() error {
	df, err := os.Open(d.dir)
	if err != nil {
		return nil
	}
	defer df.Close()
	_ = df.Sync()
	return nil
}

// Get reads and verifies the entry. Corrupt files are quarantined and
// reported as typed core.ErrCheckpointCorrupt.
func (d *Disk) Get(key string) ([]byte, []byte, error) {
	raw, err := os.ReadFile(d.Path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("store: get %s: %w", key, err)
	}
	data, meta, derr := d.verify(raw)
	if derr != nil {
		if qerr := d.Quarantine(key); qerr == nil {
			return nil, nil, fmt.Errorf("store: get %s (quarantined): %w", key, derr)
		}
		return nil, nil, fmt.Errorf("store: get %s: %w", key, derr)
	}
	return data, meta, nil
}

// verify checks the trailer and decodes the frame.
func (d *Disk) verify(raw []byte) (data, meta []byte, err error) {
	payload, err := core.VerifyChecksum(raw)
	if err != nil {
		return nil, nil, err
	}
	return decodeFrame(payload)
}

// Delete removes the entry (missing files are a no-op).
func (d *Disk) Delete(key string) error {
	err := os.Remove(d.Path(key))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: delete %s: %w", key, err)
	}
	return d.syncDir()
}

// Quarantine renames the entry's file aside (<stem>.ckpt.quarantine),
// replacing any earlier quarantined copy of the same key.
func (d *Disk) Quarantine(key string) error {
	err := os.Rename(d.Path(key), d.quarantinePath(key))
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if err != nil {
		return fmt.Errorf("store: quarantine %s: %w", key, err)
	}
	return d.syncDir()
}

// Quarantined returns the keys of quarantined spills, sorted — the
// postmortem inventory.
func (d *Disk) Quarantined() ([]string, error) {
	names, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var keys []string
	for _, de := range names {
		stem, ok := strings.CutSuffix(de.Name(), quarantineExt)
		if !ok || de.IsDir() {
			continue
		}
		key, err := decodeKey(stem)
		if err != nil {
			continue
		}
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys, nil
}

// List reads, verifies, and enumerates every live entry in key order —
// the crash-recovery scan. Corrupt entries are quarantined and skipped
// (the registry re-registers only tenants it can actually restore);
// stray temp files from an interrupted Put are ignored.
func (d *Disk) List() ([]Entry, error) {
	names, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []Entry
	for _, de := range names {
		name := de.Name()
		if de.IsDir() || strings.HasSuffix(name, quarantineExt) {
			continue
		}
		stem, ok := strings.CutSuffix(name, spillExt)
		if !ok {
			continue // temp file or foreign junk
		}
		key, err := decodeKey(stem)
		if err != nil {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(d.dir, name))
		if err != nil {
			continue
		}
		data, meta, derr := d.verify(raw)
		if derr != nil {
			_ = d.Quarantine(key)
			continue
		}
		out = append(out, Entry{Key: key, Meta: append([]byte(nil), meta...), Size: int64(len(data))})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}
