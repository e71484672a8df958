// Package wal is the one append-only log in the system: the durable pool
// store journals mutations to it, the clustered pool ships its frames
// between nodes, and the relay outbox journals deliveries to it. It owns
// the frame format, the recovery scan, the quarantine of a damaged tail,
// appends, and the atomic rewrite that compacts a log in place.
//
// A log is a sequence of frames, deliberately paranoid about partial
// writes:
//
//	uint32 LE payload length | uint32 LE CRC-32 (IEEE) of payload | payload
//
// The payload is opaque to this package. A crash mid-append leaves a torn
// tail (short header, short payload, or a CRC that no longer matches);
// Open stops at the first damaged frame, copies the damaged suffix to a
// sidecar file for forensics, and truncates the log back to its intact
// prefix — the damage is surfaced in the Recovery, never silently dropped.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// HeaderBytes is the fixed per-frame prefix: length + CRC.
const HeaderBytes = 8

// MaxPayload bounds one frame's payload, enforced symmetrically:
// EncodeFrame rejects an oversized payload before it is appended (and
// before the write is acknowledged), and replay treats an oversized
// length field as corruption, keeping a flipped length byte from driving
// a giant allocation. The bound must exceed the largest payload a legal
// write can produce: httpapi caps documents at 64 MiB, the pool's JSON
// record base64-encodes the value (4/3 inflation, ~85.4 MiB), and the
// other JSON fields add a small envelope on top — so 96 MiB with
// headroom. If the append-side bound were smaller than a legal record,
// the write would be acknowledged and then quarantined as "implausible"
// on the next boot, silently losing durable data.
const MaxPayload = 96 << 20

// ErrFailed is returned once a Log has lost its append handle: a rewrite
// failed after the rename (the old handle points at an unlinked inode), an
// append was cut short (later frames would sit behind a torn one and be
// quarantined with it), or the log was closed. Accepting appends in that
// state would acknowledge writes that vanish on the next boot, so the log
// stays failed until the process reopens it and recovers.
var ErrFailed = errors.New("wal: log failed and accepts no appends; reopen it to recover")

// openFile is os.OpenFile, replaceable so tests can fail the reopen that
// follows a rewrite's rename.
var openFile = os.OpenFile

// EncodeFrame frames payload: header and payload in a single buffer so an
// append is one write call, shrinking the torn-write window to what the
// filesystem itself can tear.
func EncodeFrame(payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload {
		// A frame replay would refuse to read back must never be
		// acknowledged as durable.
		return nil, fmt.Errorf("wal: record payload is %d bytes, above the %d-byte limit", len(payload), MaxPayload)
	}
	frame := make([]byte, HeaderBytes+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[HeaderBytes:], payload)
	return frame, nil
}

// DecodeFrame validates exactly one frame — header, declared length, and
// checksum — and returns its payload (aliasing frame).
func DecodeFrame(frame []byte) ([]byte, error) {
	if len(frame) < HeaderBytes {
		return nil, fmt.Errorf("wal: frame too short (%d bytes)", len(frame))
	}
	length := binary.LittleEndian.Uint32(frame[0:4])
	payload := frame[HeaderBytes:]
	if length > MaxPayload {
		return nil, fmt.Errorf("wal: frame declares implausible length %d", length)
	}
	if int(length) != len(payload) {
		return nil, fmt.Errorf("wal: frame length %d does not match payload %d", length, len(payload))
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(frame[4:8]) {
		return nil, errors.New("wal: frame checksum mismatch")
	}
	return payload, nil
}

// Recovery describes one scan of a log file.
type Recovery struct {
	// Records counts the intact frames handed to the callback.
	Records int
	// IntactBytes is the length of the undamaged prefix.
	IntactBytes int64
	// DamagedBytes is the byte count from the first bad frame to EOF (0
	// when the log is clean).
	DamagedBytes int64
	// Reason describes why scanning stopped early ("" when clean).
	Reason string
	// QuarantineFile is the sidecar Open copied the damaged bytes to (""
	// when clean, and always "" from Scan, which never modifies the file).
	QuarantineFile string
}

// replay reads frames from the current offset of f (a freshly opened file)
// and hands each intact payload to each; the slice is only valid during
// the call. I/O errors are returned as errors; framing damage, and a
// payload each rejects, are reported in the Recovery instead, because
// after a crash they are expected.
func replay(f *os.File, each func(payload []byte) error) (Recovery, error) {
	st, err := f.Stat()
	if err != nil {
		return Recovery{}, fmt.Errorf("wal: sizing %s: %w", f.Name(), err)
	}
	var (
		rec    Recovery
		size   = st.Size()
		r      = bufio.NewReaderSize(f, 64<<10)
		header [HeaderBytes]byte
		buf    []byte
	)
	for rec.IntactBytes < size {
		rest := size - rec.IntactBytes - HeaderBytes
		if rest < 0 {
			rec.Reason = fmt.Sprintf("torn frame header (%d of %d bytes)", rest+HeaderBytes, HeaderBytes)
			break
		}
		if _, err := io.ReadFull(r, header[:]); err != nil {
			return Recovery{}, fmt.Errorf("wal: reading %s: %w", f.Name(), err)
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		if length > MaxPayload {
			rec.Reason = fmt.Sprintf("implausible record length %d", length)
			break
		}
		if int64(length) > rest {
			rec.Reason = fmt.Sprintf("torn payload (%d of %d bytes)", rest, length)
			break
		}
		if int(length) > cap(buf) {
			buf = make([]byte, length)
		}
		buf = buf[:length]
		if _, err := io.ReadFull(r, buf); err != nil {
			return Recovery{}, fmt.Errorf("wal: reading %s: %w", f.Name(), err)
		}
		if crc32.ChecksumIEEE(buf) != binary.LittleEndian.Uint32(header[4:8]) {
			rec.Reason = "payload checksum mismatch"
			break
		}
		if err := each(buf); err != nil {
			rec.Reason = err.Error()
			break
		}
		rec.Records++
		rec.IntactBytes += HeaderBytes + int64(length)
	}
	rec.DamagedBytes = size - rec.IntactBytes
	return rec, nil
}

// Scan reads the log at path without modifying it. A Rewrite callback
// uses it to read back the records it wants to keep.
func Scan(path string, each func(payload []byte) error) (Recovery, error) {
	f, err := os.Open(path)
	if err != nil {
		return Recovery{}, fmt.Errorf("wal: opening log: %w", err)
	}
	rec, err := replay(f, each)
	return rec, errors.Join(err, f.Close())
}

// Log is an open log positioned for appends. Safe for concurrent use.
type Log struct {
	mu   sync.Mutex
	path string
	f    *os.File // nil once failed or closed
}

// Open opens (creating if needed) the log at path and scans it from
// offset 0, handing each intact payload to each. An error from each marks
// that frame damaged, exactly like a checksum mismatch. A damaged suffix
// is copied to path+".quarantine" (overwriting a previous quarantine) and
// the log truncated to its intact prefix, so the next append starts on a
// clean frame boundary.
func Open(path string, each func(payload []byte) error) (*Log, Recovery, error) {
	f, err := openFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, Recovery{}, fmt.Errorf("wal: opening log: %w", err)
	}
	rec, err := replay(f, each)
	if err == nil && rec.DamagedBytes > 0 {
		rec.QuarantineFile = path + ".quarantine"
		err = writeFileSync(rec.QuarantineFile, func(w io.Writer) error {
			_, err := io.Copy(w, io.NewSectionReader(f, rec.IntactBytes, rec.DamagedBytes))
			return err
		})
		if err == nil {
			err = f.Truncate(rec.IntactBytes)
		}
	}
	if err != nil {
		return nil, Recovery{}, errors.Join(fmt.Errorf("wal: recovering %s: %w", path, err), f.Close())
	}
	return &Log{path: path, f: f}, rec, nil
}

// writeFileSync creates (or truncates) the file at path, lets fill write
// it, and fsyncs it; on failure the partial file is removed.
func writeFileSync(path string, fill func(w io.Writer) error) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = fill(f)
	if err == nil {
		err = f.Sync()
	}
	if err = errors.Join(err, f.Close()); err != nil {
		return errors.Join(err, os.Remove(path))
	}
	return nil
}

// fail drops the append handle so every later operation reports
// ErrFailed. The caller holds l.mu.
func (l *Log) fail() error {
	f := l.f
	l.f = nil
	return f.Close()
}

// Append frames payload and appends it with one write call. It does not
// sync; callers that acknowledge on append call Sync first.
func (l *Log) Append(payload []byte) error {
	frame, err := EncodeFrame(payload)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return ErrFailed
	}
	if _, err := l.f.Write(frame); err != nil {
		// The file may now end in part of a frame; anything appended
		// behind it would be quarantined with it on the next boot.
		return errors.Join(fmt.Errorf("wal: appending: %w", err), l.fail(), ErrFailed)
	}
	return nil
}

// Sync forces appended frames to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return ErrFailed
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsyncing: %w", err)
	}
	return nil
}

// Close closes the log; later appends return ErrFailed. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	return l.fail()
}

// Rewrite atomically replaces the log's contents with the payloads emit
// hands to put: tmp file → fsync → rename → directory fsync → reopen at
// EOF. Appends are blocked for the duration, so emit must not call the
// Log's own methods (Scan reads the file through its own handle). If emit
// or the tmp write fails the original log is untouched; if anything fails after the rename
// the log latches ErrFailed (the rewritten file on disk is intact and the
// next Open recovers from it).
func (l *Log) Rewrite(emit func(put func(payload []byte) error) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return ErrFailed
	}
	tmp := l.path + ".rewrite"
	err := writeFileSync(tmp, func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		err := emit(func(payload []byte) error {
			frame, err := EncodeFrame(payload)
			if err == nil {
				_, err = bw.Write(frame)
			}
			return err
		})
		if err != nil {
			return err
		}
		return bw.Flush()
	})
	if err != nil {
		return fmt.Errorf("wal: rewriting log: %w", err)
	}
	//lint:ignore lockio the rename swaps the file out from under the append handle, so appends stay excluded from before it until the new handle is installed
	if err := os.Rename(tmp, l.path); err != nil {
		return fmt.Errorf("wal: swapping rewritten log: %w", err)
	}
	nf, err := openFile(l.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err == nil {
		if err = SyncDir(filepath.Dir(l.path)); err != nil {
			err = errors.Join(err, nf.Close())
		}
	}
	if err != nil {
		return errors.Join(fmt.Errorf("wal: reopening rewritten log: %w", err), l.fail(), ErrFailed)
	}
	old := l.f
	l.f = nf
	return old.Close()
}

// SyncDir fsyncs a directory so a just-renamed file survives power loss.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: opening dir for sync: %w", err)
	}
	if err := errors.Join(d.Sync(), d.Close()); err != nil {
		return fmt.Errorf("wal: fsyncing dir: %w", err)
	}
	return nil
}
