// Package store persists the expensive matching artifacts — translation
// dictionaries, entity-type alignments, per-type similarity workspaces
// and LSI models — as versioned binary snapshots, giving the system the
// offline/online split production matchers rely on: precompute once
// (wikimatch precompute), ship the artifact file, serve warm
// (wikimatchd -store).
//
// A snapshot is a single self-contained file:
//
//	header    magic, format version, corpus fingerprint, creation time
//	table     one entry per section: kind, name, payload length, CRC32
//	checksum  CRC32 over header+table
//	payloads  section payloads, concatenated in table order
//
// Every payload is covered by its own CRC32 and the header/table region
// by a trailing CRC32, so any flipped byte anywhere in the file is
// detected at load. Loading is all-or-nothing: a snapshot that fails any
// check yields a typed error and no partial state. Snapshots are keyed
// by a corpus fingerprint (wiki.Corpus.Fingerprint); the service layer
// rejects a snapshot whose fingerprint does not match the corpus it is
// being restored against, so stale artifacts are never served.
//
// See README.md in this directory for the exact byte layout.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Magic opens every snapshot file.
const Magic = "WMSTORE\n"

// Version is the current format version. Readers reject snapshots of
// any other version with a VersionError: a newer layout they cannot
// know, and an older one whose corpus fingerprint no longer means what
// it did (v2 changed wiki.Corpus.Fingerprint to a sum of per-article
// digests). Writers always emit this version.
const Version uint32 = 2

// Section kinds.
const (
	kindConfig uint16 = 1 // matcher configuration (JSON)
	kindPair   uint16 = 2 // per-pair artifacts: type alignment + dictionary
	kindType   uint16 = 3 // per-type artifacts: TypeData + LSI model
)

// Typed load errors. Every failure mode the robustness tests exercise
// maps to exactly one of these, so callers can tell a stale snapshot
// from a corrupt one from a future one.
var (
	// ErrBadMagic means the input is not a wikimatch snapshot at all.
	ErrBadMagic = errors.New("store: bad magic (not a wikimatch snapshot)")
	// ErrTruncated means the input ended before the structure it
	// promised, or a declared length exceeds the available bytes.
	ErrTruncated = errors.New("store: truncated snapshot")
)

// VersionError reports a snapshot written in a format version other
// than the one this reader understands, older or newer.
type VersionError struct {
	Got, Want uint32
}

func (e *VersionError) Error() string {
	if e.Got < e.Want {
		return fmt.Sprintf("store: snapshot format v%d older than supported v%d (rebuild the snapshot)", e.Got, e.Want)
	}
	return fmt.Sprintf("store: snapshot format v%d newer than supported v%d", e.Got, e.Want)
}

// ChecksumError reports a CRC32 mismatch: the named region was altered
// after the snapshot was written.
type ChecksumError struct {
	Section string
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("store: checksum mismatch in %s", e.Section)
}

// CorruptError reports a payload that passed its checksum but failed to
// decode — a writer/reader disagreement rather than bit rot.
type CorruptError struct {
	Section string
	Err     error
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: corrupt section %s: %v", e.Section, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// FingerprintError reports a snapshot built from a different corpus than
// the one it is being restored against.
type FingerprintError struct {
	Snapshot, Corpus uint64
}

func (e *FingerprintError) Error() string {
	return fmt.Sprintf("store: snapshot corpus fingerprint %016x does not match corpus %016x", e.Snapshot, e.Corpus)
}

// ConfigMismatchError reports a restore whose session would differ from
// the snapshot's on something that shaped the persisted artifacts (Field
// "LSIRank", or "dictionary" for a pair section built without one) —
// serving them would silently produce results a cold build would not.
type ConfigMismatchError struct {
	Field string
}

func (e *ConfigMismatchError) Error() string {
	return fmt.Sprintf("store: snapshot artifacts were built with a different %s configuration", e.Field)
}

// section is one named, checksummed blob inside a snapshot.
type section struct {
	kind    uint16
	name    string
	payload []byte
}

const headerSize = 8 + 4 + 8 + 8 + 4 // magic, version, fingerprint, created-at, section count

// maxSections bounds the section count a reader will accept, so a
// corrupt header cannot demand an absurd allocation. A snapshot holds a
// handful of pairs and a few dozen types.
const maxSections = 1 << 20

// writeContainer assembles the container around the given sections and
// writes it to w. createdAt is Unix nanoseconds.
func writeContainer(w io.Writer, fingerprint uint64, createdAt int64, sections []section) error {
	head := make([]byte, 0, headerSize+64*len(sections))
	head = append(head, Magic...)
	head = binary.LittleEndian.AppendUint32(head, Version)
	head = binary.LittleEndian.AppendUint64(head, fingerprint)
	head = binary.LittleEndian.AppendUint64(head, uint64(createdAt))
	head = binary.LittleEndian.AppendUint32(head, uint32(len(sections)))
	for _, s := range sections {
		head = binary.LittleEndian.AppendUint16(head, s.kind)
		head = binary.AppendUvarint(head, uint64(len(s.name)))
		head = append(head, s.name...)
		head = binary.AppendUvarint(head, uint64(len(s.payload)))
		head = binary.LittleEndian.AppendUint32(head, crc32.ChecksumIEEE(s.payload))
	}
	head = binary.LittleEndian.AppendUint32(head, crc32.ChecksumIEEE(head))
	if _, err := w.Write(head); err != nil {
		return err
	}
	for _, s := range sections {
		if _, err := w.Write(s.payload); err != nil {
			return err
		}
	}
	return nil
}

// readContainer parses and verifies a whole snapshot from r: magic,
// version, header/table checksum, then every section payload against its
// CRC32. It returns the header fields and the verified sections, or a
// typed error and nothing.
func readContainer(r io.Reader) (fingerprint uint64, createdAt int64, sections []section, err error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("store: read snapshot: %w", err)
	}
	if len(data) < len(Magic) {
		return 0, 0, nil, ErrTruncated
	}
	if string(data[:len(Magic)]) != Magic {
		return 0, 0, nil, ErrBadMagic
	}
	if len(data) < headerSize {
		return 0, 0, nil, ErrTruncated
	}
	version := binary.LittleEndian.Uint32(data[8:12])
	if version != Version {
		return 0, 0, nil, &VersionError{Got: version, Want: Version}
	}
	fingerprint = binary.LittleEndian.Uint64(data[12:20])
	createdAt = int64(binary.LittleEndian.Uint64(data[20:28]))
	nSections := binary.LittleEndian.Uint32(data[28:32])
	if nSections > maxSections {
		return 0, 0, nil, ErrTruncated
	}

	// Walk the section table.
	type tableEntry struct {
		kind   uint16
		name   string
		length int
		crc    uint32
	}
	pos := headerSize
	entries := make([]tableEntry, 0, nSections)
	for i := uint32(0); i < nSections; i++ {
		var e tableEntry
		if pos+2 > len(data) {
			return 0, 0, nil, ErrTruncated
		}
		e.kind = binary.LittleEndian.Uint16(data[pos:])
		pos += 2
		nameLen, n := binary.Uvarint(data[pos:])
		if n <= 0 || nameLen > uint64(len(data)-pos-n) {
			return 0, 0, nil, ErrTruncated
		}
		pos += n
		e.name = string(data[pos : pos+int(nameLen)])
		pos += int(nameLen)
		payLen, n := binary.Uvarint(data[pos:])
		if n <= 0 || payLen > math.MaxInt32 {
			return 0, 0, nil, ErrTruncated
		}
		pos += n
		e.length = int(payLen)
		if pos+4 > len(data) {
			return 0, 0, nil, ErrTruncated
		}
		e.crc = binary.LittleEndian.Uint32(data[pos:])
		pos += 4
		entries = append(entries, e)
	}
	if pos+4 > len(data) {
		return 0, 0, nil, ErrTruncated
	}
	if crc32.ChecksumIEEE(data[:pos]) != binary.LittleEndian.Uint32(data[pos:]) {
		return 0, 0, nil, &ChecksumError{Section: "header"}
	}
	pos += 4

	// Slice out and verify the payloads.
	sections = make([]section, 0, len(entries))
	for _, e := range entries {
		if e.length > len(data)-pos {
			return 0, 0, nil, ErrTruncated
		}
		payload := data[pos : pos+e.length]
		pos += e.length
		if crc32.ChecksumIEEE(payload) != e.crc {
			return 0, 0, nil, &ChecksumError{Section: sectionLabel(e.kind, e.name)}
		}
		sections = append(sections, section{kind: e.kind, name: e.name, payload: payload})
	}
	if pos != len(data) {
		return 0, 0, nil, ErrTruncated
	}
	return fingerprint, createdAt, sections, nil
}

func sectionLabel(kind uint16, name string) string {
	switch kind {
	case kindConfig:
		return "config"
	case kindPair:
		return "pair " + name
	case kindType:
		return "type " + name
	}
	return fmt.Sprintf("kind-%d %s", kind, name)
}

// WriteFile writes a snapshot produced by the write callback to path
// atomically: the bytes land in a temporary file in the same directory,
// are synced to disk, and are renamed over path only on success. A
// crash or error mid-write never leaves a partial snapshot at path.
func WriteFile(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".wmsnap-*")
	if err != nil {
		return fmt.Errorf("store: create temp snapshot: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("store: sync snapshot: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("store: close snapshot: %w", err)
	}
	if err = os.Chmod(tmp.Name(), 0o644); err != nil {
		return fmt.Errorf("store: chmod snapshot: %w", err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: publish snapshot: %w", err)
	}
	return nil
}
