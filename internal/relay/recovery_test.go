package relay

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dra4wfms/internal/wal"
)

// receiver is a fake peer that applies deliveries exactly once per
// idempotency key, like a webhook callback should: a redelivered key is
// acknowledged without a second application.
type receiver struct {
	mu       sync.Mutex
	applied  map[string]int // key → times actually applied
	received map[string]int // key → times a delivery arrived
}

func newReceiver() *receiver {
	return &receiver{applied: map[string]int{}, received: map[string]int{}}
}

func (rc *receiver) deliver(e Entry) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.received[e.Key]++
	if rc.applied[e.Key] == 0 {
		rc.applied[e.Key]++
	}
}

func (rc *receiver) appliedCount(key string) int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.applied[key]
}

func (rc *receiver) receivedCount(key string) int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.received[key]
}

// TestCrashRecovery kills a relay mid-flight and proves the WAL replay
// loses nothing and double-applies nothing. Phase 1 runs against a peer
// where two deliveries succeed cleanly, one succeeds but its
// acknowledgement is lost (the classic duplicating failure), and three
// fail outright; the relay is then closed with those four unsettled.
// Phase 2 reopens the same WAL against a healed peer.
func TestCrashRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "outbox.wal")
	rc := newReceiver()
	keys := []string{"a", "b", "c", "d", "e", "f"}

	tr1 := TransportFunc(func(ctx context.Context, e Entry) error {
		switch e.Key {
		case "a", "b":
			rc.deliver(e)
			return nil
		case "c":
			// Applied by the peer, but the ack never makes it back.
			rc.deliver(e)
			return errors.New("ack lost")
		default:
			return errors.New("peer down")
		}
	})

	ob, err := OpenOutbox(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.MaxAttempts = 1000 // nothing dead-letters; unsettled work survives the crash
	r := New(ob, tr1, cfg)
	for _, k := range keys {
		if _, dup, err := r.Enqueue("peer", "store", k, []byte("payload-"+k)); err != nil || dup {
			t.Fatalf("Enqueue(%s) = dup=%v err=%v", k, dup, err)
		}
	}
	// Wait until the clean deliveries acked and the others have been tried.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := r.Stats()
		if st.Delivered >= 2 && rc.appliedCount("c") == 1 && st.Attempts >= 6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("phase 1 never settled: %+v", r.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if err := r.Close(); err != nil { // the "crash": pending work stays in the WAL
		t.Fatal(err)
	}

	// Phase 2: reopen the journal against a healed peer.
	ob2, err := OpenOutbox(path)
	if err != nil {
		t.Fatal(err)
	}
	if p, d := ob2.Counts(); p != 4 || d != 0 {
		t.Fatalf("replayed counts = (%d,%d), want (4,0)", p, d)
	}
	tr2 := TransportFunc(func(ctx context.Context, e Entry) error {
		rc.deliver(e)
		return nil
	})
	r2 := New(ob2, tr2, testConfig())
	defer r2.Close()
	r2.Flush()

	if st := r2.Stats(); st.Pending != 0 || st.Dead != 0 || st.Delivered != 4 {
		t.Fatalf("phase 2 stats = %+v", st)
	}
	// No delivery lost: every key applied; none applied twice — including
	// "c", which arrived in both phases and was absorbed by receiver-side
	// idempotency.
	for _, k := range keys {
		if got := rc.appliedCount(k); got != 1 {
			t.Fatalf("key %s applied %d times, want exactly 1", k, got)
		}
	}
	if got := rc.receivedCount("c"); got < 2 {
		t.Fatalf("key c received %d times, want >= 2 (redelivery)", got)
	}
	// Acked deliveries were not redelivered after the restart.
	for _, k := range []string{"a", "b"} {
		if got := rc.receivedCount(k); got != 1 {
			t.Fatalf("acked key %s received %d times after restart, want 1", k, got)
		}
	}
}

// TestOutboxTornTailRecovery crashes "mid-append": the journal ends in a
// half-written record, which replay must drop without losing the intact
// prefix — and the next append must not corrupt the file.
func TestOutboxTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "outbox.wal")
	o, err := OpenOutbox(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := o.Append("d", "store", fmt.Sprintf("k%d", i), "", []byte("p")); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a frame cut off inside its payload.
	frame, err := wal.EncodeFrame([]byte(`{"op":"enq","seq":3,"dest":"d","kind":"store","key":"k3"}`))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:len(frame)-20]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	o2, err := OpenOutbox(path)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	if rec := o2.Recovery(); rec.DamagedBytes != int64(len(frame)-20) || rec.Reason == "" {
		t.Fatalf("torn tail not reported: %+v", rec)
	}
	if p, d := o2.Counts(); p != 3 || d != 0 {
		t.Fatalf("counts after torn-tail replay = (%d,%d), want (3,0)", p, d)
	}
	// The file must be clean for new appends.
	if _, _, err := o2.Append("d", "store", "k3", "", []byte("p")); err != nil {
		t.Fatal(err)
	}
	if err := o2.Close(); err != nil {
		t.Fatal(err)
	}
	o3, err := OpenOutbox(path)
	if err != nil {
		t.Fatal(err)
	}
	defer o3.Close()
	if p, _ := o3.Counts(); p != 4 {
		t.Fatalf("pending after post-tear append = %d, want 4", p)
	}
}

// journalOf frames records the way the outbox does.
func journalOf(t *testing.T, recs ...walRecord) []byte {
	t.Helper()
	var out []byte
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := wal.EncodeFrame(b)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, frame...)
	}
	return out
}

// TestOutboxRejectsMidFileCorruption: a mangled record that is NOT the
// final one must not be skipped over. The policy is the pool's: the
// damaged suffix (the mangled record and everything behind it) is
// quarantined byte for byte, the intact prefix replays, the outbox boots,
// and Recovery says what happened.
func TestOutboxRejectsMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "outbox.wal")
	head := journalOf(t, walRecord{Op: "enq", Seq: 0, Dest: "d", Kind: "store", Key: "a"})
	tail := append([]byte("not a frame at all\n"),
		journalOf(t, walRecord{Op: "enq", Seq: 1, Dest: "d", Kind: "store", Key: "b"})...)
	if err := os.WriteFile(path, append(append([]byte(nil), head...), tail...), 0o644); err != nil {
		t.Fatal(err)
	}
	o, err := OpenOutbox(path)
	if err != nil {
		t.Fatalf("mid-file corruption must quarantine, not refuse to boot: %v", err)
	}
	defer o.Close()
	rec := o.Recovery()
	if rec.DamagedBytes != int64(len(tail)) || rec.IntactBytes != int64(len(head)) || rec.Reason == "" {
		t.Fatalf("Recovery = %+v, want %d damaged bytes after a %d-byte intact prefix", rec, len(tail), len(head))
	}
	if q, err := os.ReadFile(rec.QuarantineFile); err != nil || !bytes.Equal(q, tail) {
		t.Fatalf("quarantine file does not hold the damaged suffix: %v", err)
	}
	if got := o.Pending(); len(got) != 1 || got[0].Key != "a" {
		t.Fatalf("pending after quarantine = %+v, want only the intact prefix (key a)", got)
	}
}

// TestOutboxTornTailDetectsFlippedPayloadByte flips one byte inside the
// base64 payload of a MIDDLE enq record. The record is still valid JSON
// and still valid base64, so a journal without a checksum replays it and
// delivers the corrupted payload silently; the frame CRC must catch it,
// quarantine the suffix, replay the intact prefix, and report.
func TestOutboxTornTailDetectsFlippedPayloadByte(t *testing.T) {
	path := filepath.Join(t.TempDir(), "outbox.wal")
	o, err := OpenOutbox(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := o.Append("d", "store", fmt.Sprintf("k%d", i), "", []byte("payload-payload-payload")); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b64 := []byte(base64.StdEncoding.EncodeToString([]byte("payload-payload-payload")))
	first := bytes.Index(raw, b64)
	second := first + len(b64) + bytes.Index(raw[first+len(b64):], b64)
	if first < 0 || second <= first {
		t.Fatal("journal does not hold the base64 payloads where expected")
	}
	raw[second+4] ^= 0x01 // 'b' <-> 'c': still base64, different bytes
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	o2, err := OpenOutbox(path)
	if err != nil {
		t.Fatal(err)
	}
	defer o2.Close()
	for _, e := range o2.Pending() {
		if string(e.Payload) != "payload-payload-payload" {
			t.Fatalf("entry %d replayed with a corrupted payload %q", e.Seq, e.Payload)
		}
	}
	rec := o2.Recovery()
	if rec.DamagedBytes == 0 || rec.Records != 1 || !strings.Contains(rec.Reason, "checksum") {
		t.Fatalf("Recovery = %+v, want the flipped byte caught by the checksum after 1 intact record", rec)
	}
	if got := o2.Pending(); len(got) != 1 || got[0].Key != "k0" {
		t.Fatalf("pending = %+v, want only the intact prefix (k0)", got)
	}
}
