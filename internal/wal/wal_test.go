package wal_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dra4wfms/internal/relay"
	"dra4wfms/internal/wal"
)

func frames(t testing.TB, payloads ...string) []byte {
	t.Helper()
	var out []byte
	for _, p := range payloads {
		f, err := wal.EncodeFrame([]byte(p))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f...)
	}
	return out
}

// open opens path collecting the replayed payloads.
func open(t testing.TB, path string) (*wal.Log, wal.Recovery, []string) {
	t.Helper()
	var got []string
	l, rec, err := wal.Open(path, func(p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, rec, got
}

func TestFrameRoundTripAndBounds(t *testing.T) {
	frame, err := wal.EncodeFrame([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := wal.DecodeFrame(frame); err != nil || string(got) != "hello" {
		t.Fatalf("DecodeFrame = %q, %v", got, err)
	}
	for name, bad := range map[string][]byte{
		"short":    frame[:5],
		"trailing": append(append([]byte(nil), frame...), 0),
		"torn":     frame[:len(frame)-1],
		"bit flip": append(append([]byte(nil), frame[:len(frame)-1]...), frame[len(frame)-1]^1),
	} {
		if _, err := wal.DecodeFrame(bad); err == nil {
			t.Errorf("%s frame accepted", name)
		}
	}
	if _, err := wal.EncodeFrame(make([]byte, wal.MaxPayload+1)); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("oversized payload: %v, want the size-limit rejection", err)
	}
}

func TestOpenQuarantinesDamagedSuffix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	intact := frames(t, "one", "two")
	tail := frames(t, "three", "four")
	tail[wal.HeaderBytes] ^= 0x01 // flip a payload byte of "three"
	if err := os.WriteFile(path, append(append([]byte(nil), intact...), tail...), 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec, got := open(t, path)
	want := wal.Recovery{Records: 2, IntactBytes: int64(len(intact)), DamagedBytes: int64(len(tail)),
		Reason: "payload checksum mismatch", QuarantineFile: path + ".quarantine"}
	if rec != want || fmt.Sprint(got) != "[one two]" {
		t.Fatalf("Open = %+v %v, want %+v [one two]", rec, got, want)
	}
	if q, err := os.ReadFile(rec.QuarantineFile); err != nil || !bytes.Equal(q, tail) {
		t.Fatalf("quarantine file does not hold the damaged suffix: %v", err)
	}
	// Appends continue on the clean boundary, and the next boot is clean.
	if err := l.Append([]byte("five")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, rec, got := open(t, path); rec.DamagedBytes != 0 || fmt.Sprint(got) != "[one two five]" {
		t.Fatalf("second Open = %+v %v", rec, got)
	}
}

// TestOpenCallbackErrorMarksFrameDamaged: a payload the caller cannot
// decode is damage, exactly like a checksum mismatch.
func TestOpenCallbackErrorMarksFrameDamaged(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, frames(t, "ok", "bad", "ok"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec, err := wal.Open(path, func(p []byte) error {
		if string(p) == "bad" {
			return errors.New("unknown op")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if rec.Records != 1 || rec.Reason != "unknown op" || rec.DamagedBytes != int64(len(frames(t, "bad", "ok"))) {
		t.Fatalf("Recovery = %+v", rec)
	}
}

func TestRewriteReplacesContentsAndKeepsAppending(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := open(t, path)
	for _, p := range []string{"a", "b", "c"} {
		if err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	// Keep what Scan reads back minus "b": the compaction pattern.
	err := l.Rewrite(func(put func([]byte) error) error {
		_, err := wal.Scan(path, func(p []byte) error {
			if string(p) == "b" {
				return nil
			}
			return put(p)
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("d")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// A failed emit leaves the log untouched and usable.
	if err := l.Rewrite(func(func([]byte) error) error { return errors.New("emit failed") }); err == nil {
		t.Fatal("Rewrite swallowed the emit error")
	}
	if err := l.Append([]byte("e")); err != nil {
		t.Fatalf("Append after an aborted rewrite: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, rec, got := open(t, path); rec.DamagedBytes != 0 || fmt.Sprint(got) != "[a c d e]" {
		t.Fatalf("after rewrite: %+v %v, want [a c d e]", rec, got)
	}
}

// TestConcurrentAppendAndRewrite: appenders race a rewriter that keeps
// every record; no acknowledged append may be missing or doubled after.
func TestConcurrentAppendAndRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := open(t, path)
	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 10; i++ {
		err := l.Rewrite(func(put func([]byte) error) error {
			_, err := wal.Scan(path, put)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, got := open(t, path)
	seen := map[string]int{}
	for _, p := range got {
		seen[p]++
	}
	if rec.DamagedBytes != 0 || len(got) != writers*perWriter || len(seen) != writers*perWriter {
		t.Fatalf("after concurrent appends and rewrites: %+v, %d records, %d distinct, want %d", rec, len(got), len(seen), writers*perWriter)
	}
}

// TestRewriteReopenFailureLatches: once the rename has happened the old
// handle points at an unlinked inode. If the new handle cannot be
// installed the log must refuse every later append — an acknowledged
// write there would be gone on the next boot — and the rewritten file on
// disk must still recover.
func TestRewriteReopenFailureLatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := open(t, path)
	if err := l.Append([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	wal.FailReopen(t)
	err := l.Rewrite(func(put func([]byte) error) error { return put([]byte("kept")) })
	if !errors.Is(err, wal.ErrFailed) {
		t.Fatalf("Rewrite = %v, want ErrFailed", err)
	}
	if err := l.Append([]byte("lost")); !errors.Is(err, wal.ErrFailed) {
		t.Fatalf("Append on a failed log = %v, want ErrFailed", err)
	}
	if err := l.Sync(); !errors.Is(err, wal.ErrFailed) {
		t.Fatalf("Sync on a failed log = %v, want ErrFailed", err)
	}
	var got []string
	if _, err := wal.Scan(path, func(p []byte) error { got = append(got, string(p)); return nil }); err != nil || fmt.Sprint(got) != "[kept]" {
		t.Fatalf("rewritten file on disk = %v, %v, want [kept]", got, err)
	}
}

// TestOutboxRefusesAppendsAfterFailedRewrite is the relay half of the
// same contract. The outbox's hand-rolled compaction used to return the
// reopen error and keep appending to the unlinked inode: the next Append
// was acknowledged and lost.
func TestOutboxRefusesAppendsAfterFailedRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "outbox.wal")
	o, err := relay.OpenOutbox(path)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if _, _, err := o.Append("d", "store", "k0", "", []byte("p")); err != nil {
		t.Fatal(err)
	}
	wal.FailReopen(t)
	if err := o.Compact(); !errors.Is(err, wal.ErrFailed) {
		t.Fatalf("Compact = %v, want ErrFailed", err)
	}
	if _, _, err := o.Append("d", "store", "k1", "", []byte("p")); !errors.Is(err, wal.ErrFailed) {
		t.Fatalf("Append after the failed compaction = %v, want ErrFailed (it was acknowledged against an unlinked inode)", err)
	}
	if p, _ := o.Counts(); p != 1 {
		t.Fatalf("pending = %d, want 1: the refused append must not be tracked", p)
	}
}

// FuzzOpen feeds arbitrary bytes to Open as a log file: it must not
// panic, must account for every byte as intact or damaged, must never
// hand out a payload past the bound, and must leave a file whose next
// Open is clean and yields the same records.
func FuzzOpen(f *testing.F) {
	valid := frames(f, `{"op":"put","lsn":1}`, "", "third")
	f.Add(valid)
	f.Add(valid[:len(valid)-len("third")-3])                        // torn header
	f.Add(valid[:len(valid)-2])                                     // torn payload
	f.Add(append(append([]byte(nil), valid[:len(valid)-1]...), 0))  // bad CRC
	f.Add(append(frames(f, "ok"), 0xff, 0xff, 0xff, 0xff, 0, 0, 0)) // oversized length
	f.Add([]byte(`{"op":"enq","seq":0,"dest":"d","kind":"store"}` + "\n"))
	f.Fuzz(func(t *testing.T, input []byte) {
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, input, 0o644); err != nil {
			t.Fatal(err)
		}
		var first []string
		l, rec, err := wal.Open(path, func(p []byte) error {
			if len(p) > wal.MaxPayload {
				t.Fatalf("payload of %d bytes is past the bound", len(p))
			}
			first = append(first, string(p))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if rec.IntactBytes+rec.DamagedBytes != int64(len(input)) || rec.Records != len(first) {
			t.Fatalf("Recovery %+v does not account for %d input bytes and %d records", rec, len(input), len(first))
		}
		if (rec.DamagedBytes > 0) != (rec.Reason != "") || (rec.DamagedBytes > 0) != (rec.QuarantineFile != "") {
			t.Fatalf("Recovery %+v reports damage inconsistently", rec)
		}
		var second []string
		l2, rec2, err := wal.Open(path, func(p []byte) error { second = append(second, string(p)); return nil })
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		if rec2.DamagedBytes != 0 || rec2.IntactBytes != rec.IntactBytes || fmt.Sprint(first) != fmt.Sprint(second) {
			t.Fatalf("re-Open after quarantine: %+v with %d records, first Open %+v with %d", rec2, len(second), rec, len(first))
		}
	})
}
