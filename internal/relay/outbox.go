package relay

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"dra4wfms/internal/wal"
)

// The outbox is the durability half of the relay: every delivery is
// appended to a write-ahead log before the first attempt, acknowledged
// after a successful one, and dead-lettered when the retry budget runs
// out. Reopening the log after a crash replays it and reconstructs the
// exact pending/dead sets, so no accepted delivery is ever lost and no
// acknowledged one is attempted again.
//
// The journal is an internal/wal log — the same CRC-framed format, torn-
// tail quarantine and atomic rewrite the pool's WAL uses — whose frame
// payloads are JSON records:
//
//	{"op":"enq","seq":7,"dest":"http://...","kind":"webhook","key":"ab12...","payload":"...base64..."}
//	{"op":"fail","seq":7}                      one attempt failed (attempt count survives restart)
//	{"op":"ack","seq":7}                       delivered; entry is logically gone
//	{"op":"dead","seq":9,"reason":"..."}       moved to the dead-letter queue
//	{"op":"requeue","seq":9}                   operator moved it back to pending
//	{"op":"drop","seq":9}                      operator discarded it
//
// Acked entries accumulate as dead weight in the file; Compact rewrites
// the journal with only live state. Ack triggers compaction automatically
// every compactEvery acknowledgements.

// IdempotencyKey derives the key that identifies one logical delivery:
// the digest of (kind, destination, payload). Retries of the same hop
// collide on it, so the outbox refuses a second enqueue. Callers whose
// payloads legitimately repeat (a loop re-notifying the same worklist)
// must fold a local sequence number into the payload or supply their own
// key.
func IdempotencyKey(kind, dest string, payload []byte) string {
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write([]byte(dest))
	h.Write([]byte{0})
	h.Write(payload)
	return hex.EncodeToString(h.Sum(nil))
}

// walRecord is one journal record.
type walRecord struct {
	Op       string `json:"op"`
	Seq      uint64 `json:"seq"`
	Dest     string `json:"dest,omitempty"`
	Kind     string `json:"kind,omitempty"`
	Key      string `json:"key,omitempty"`
	Payload  []byte `json:"payload,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Reason   string `json:"reason,omitempty"`
	Trace    string `json:"trace,omitempty"`
}

// Entry is one delivery tracked by the outbox.
type Entry struct {
	// Seq is the append sequence number, unique within one outbox.
	Seq uint64
	// Dest is the destination the transport delivers to (a callback URL
	// for a webhook, a node ID for replication).
	Dest string
	// Kind names the delivery type (e.g. "webhook", "replicate");
	// transports dispatch on it.
	Kind string
	// Key is the idempotency key; the outbox refuses to enqueue a key
	// that is already pending or was already acknowledged, and receivers
	// use it to deduplicate redeliveries.
	Key string
	// Payload is the opaque delivery body.
	Payload []byte
	// Attempts counts delivery attempts so far.
	Attempts int
	// Reason records why the entry was dead-lettered (empty while live).
	Reason string
	// Trace is the W3C traceparent of the hop that enqueued the delivery
	// (empty when the hop was untraced). Persisted in the WAL so a retry —
	// even one after a crash and replay — continues the originating trace.
	Trace string
}

// compactEvery bounds journal garbage: after this many acks since the
// last rewrite the journal is compacted in place.
const compactEvery = 512

// maxAckedKeys bounds the sender-side dedup memory of acknowledged keys.
const maxAckedKeys = 8192

// Outbox is the persistent pending-delivery log. The zero value is not
// usable; open one with OpenOutbox. Safe for concurrent use.
type Outbox struct {
	mu       sync.Mutex
	log      *wal.Log     // nil when memory-only (tests, ephemeral relays)
	recovery wal.Recovery // what OpenOutbox found in the journal
	nextSeq  uint64
	pending  map[uint64]*Entry
	dead     map[uint64]*Entry
	// liveKeys maps an idempotency key to its live (pending or dead)
	// entry; ackedKeys remembers recently completed keys so redundant
	// enqueues of an already-delivered message are dropped at the source.
	liveKeys  map[string]uint64
	ackedKeys map[string]bool
	ackedList []string // FIFO eviction order for ackedKeys
	acks      int      // acks since the last compaction
}

// OpenOutbox opens (creating if needed) the journal at path and replays
// it. A damaged suffix — a torn final record, a flipped bit, a journal in
// the pre-wal line format — is quarantined to path+".quarantine" and the
// intact prefix replayed; Recovery reports it. An empty path keeps the
// outbox in memory only — no durability, but the same semantics.
func OpenOutbox(path string) (*Outbox, error) {
	o := &Outbox{
		pending:   map[uint64]*Entry{},
		dead:      map[uint64]*Entry{},
		liveKeys:  map[string]uint64{},
		ackedKeys: map[string]bool{},
	}
	if path == "" {
		return o, nil
	}
	var err error
	o.log, o.recovery, err = wal.Open(path, func(payload []byte) error {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("undecodable payload: %v", err)
		}
		o.apply(rec)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("relay: opening outbox: %w", err)
	}
	return o, nil
}

// Recovery reports what OpenOutbox found in the journal. DamagedBytes > 0
// means deliveries journaled in the damaged suffix were lost to the
// quarantine file; operators must hear about it.
func (o *Outbox) Recovery() wal.Recovery { return o.recovery }

// apply folds one journal record into the in-memory state.
func (o *Outbox) apply(rec walRecord) {
	switch rec.Op {
	case "enq":
		e := &Entry{Seq: rec.Seq, Dest: rec.Dest, Kind: rec.Kind, Key: rec.Key,
			Payload: rec.Payload, Attempts: rec.Attempts, Trace: rec.Trace}
		o.pending[e.Seq] = e
		if e.Key != "" {
			o.liveKeys[e.Key] = e.Seq
		}
		if rec.Seq >= o.nextSeq {
			o.nextSeq = rec.Seq + 1
		}
	case "fail":
		if e, ok := o.pending[rec.Seq]; ok {
			e.Attempts++
		}
	case "ack":
		if e, ok := o.pending[rec.Seq]; ok {
			delete(o.pending, rec.Seq)
			o.forgetLive(e)
			o.rememberAcked(e.Key)
		}
	case "dead":
		if e, ok := o.pending[rec.Seq]; ok {
			delete(o.pending, rec.Seq)
			e.Reason = rec.Reason
			o.dead[rec.Seq] = e
		}
	case "requeue":
		if e, ok := o.dead[rec.Seq]; ok {
			delete(o.dead, rec.Seq)
			e.Reason = ""
			e.Attempts = 0
			o.pending[rec.Seq] = e
		}
	case "drop":
		if e, ok := o.dead[rec.Seq]; ok {
			delete(o.dead, rec.Seq)
			o.forgetLive(e)
		}
	}
}

func (o *Outbox) forgetLive(e *Entry) {
	if e.Key != "" && o.liveKeys[e.Key] == e.Seq {
		delete(o.liveKeys, e.Key)
	}
}

func (o *Outbox) rememberAcked(key string) {
	if key == "" {
		return
	}
	if !o.ackedKeys[key] {
		o.ackedKeys[key] = true
		o.ackedList = append(o.ackedList, key)
		for len(o.ackedList) > maxAckedKeys {
			delete(o.ackedKeys, o.ackedList[0])
			o.ackedList = o.ackedList[1:]
		}
	}
}

// journal marshals rec and hands it to put: the log's Append, or the put
// of a rewrite.
func journal(rec walRecord, put func(payload []byte) error) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return put(b)
}

// enqRecord is the record that (re)creates e on replay.
func enqRecord(e Entry) walRecord {
	return walRecord{Op: "enq", Seq: e.Seq, Dest: e.Dest, Kind: e.Kind,
		Key: e.Key, Payload: e.Payload, Attempts: e.Attempts, Trace: e.Trace}
}

// write appends one record to the journal (no-op in memory mode). The
// caller holds o.mu; journal appends are serialized by design — the WAL
// is the ordering authority for replay.
func (o *Outbox) write(rec walRecord) error {
	if o.log == nil {
		return nil
	}
	if err := journal(rec, o.log.Append); err != nil {
		return fmt.Errorf("relay: appending to outbox: %w", err)
	}
	return nil
}

// Append enqueues a delivery. If key is non-empty and already pending,
// dead, or recently acknowledged, the enqueue is a duplicate: Append
// returns the existing entry (zero Entry for acked keys) with dup=true
// and writes nothing. trace is the enqueuing hop's traceparent ("" when
// untraced); it is journaled with the entry.
func (o *Outbox) Append(dest, kind, key, trace string, payload []byte) (Entry, bool, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if key != "" {
		if seq, ok := o.liveKeys[key]; ok {
			if e, ok := o.pending[seq]; ok {
				return *e, true, nil
			}
			if e, ok := o.dead[seq]; ok {
				return *e, true, nil
			}
		}
		if o.ackedKeys[key] {
			return Entry{}, true, nil
		}
	}
	e := &Entry{Seq: o.nextSeq, Dest: dest, Kind: kind, Key: key, Trace: trace,
		Payload: append([]byte(nil), payload...)}
	if err := o.write(enqRecord(*e)); err != nil {
		return Entry{}, false, err
	}
	o.nextSeq++
	o.pending[e.Seq] = e
	if key != "" {
		o.liveKeys[key] = e.Seq
	}
	return *e, false, nil
}

// Fail records one failed attempt; the attempt count survives restarts.
func (o *Outbox) Fail(seq uint64) (attempts int, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	e, ok := o.pending[seq]
	if !ok {
		return 0, fmt.Errorf("relay: fail: no pending entry %d", seq)
	}
	if err := o.write(walRecord{Op: "fail", Seq: seq}); err != nil {
		return e.Attempts, err
	}
	e.Attempts++
	return e.Attempts, nil
}

// Ack marks a delivery complete and compacts the journal when enough
// garbage has accumulated.
func (o *Outbox) Ack(seq uint64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	e, ok := o.pending[seq]
	if !ok {
		return fmt.Errorf("relay: ack: no pending entry %d", seq)
	}
	if err := o.write(walRecord{Op: "ack", Seq: seq}); err != nil {
		return err
	}
	delete(o.pending, seq)
	o.forgetLive(e)
	o.rememberAcked(e.Key)
	o.acks++
	if o.acks >= compactEvery {
		return o.compactLocked()
	}
	return nil
}

// DeadLetter moves a pending entry to the dead-letter queue.
func (o *Outbox) DeadLetter(seq uint64, reason string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	e, ok := o.pending[seq]
	if !ok {
		return fmt.Errorf("relay: deadletter: no pending entry %d", seq)
	}
	if err := o.write(walRecord{Op: "dead", Seq: seq, Reason: reason}); err != nil {
		return err
	}
	delete(o.pending, seq)
	e.Reason = reason
	o.dead[seq] = e
	return nil
}

// Requeue moves a dead-lettered entry back to pending with a fresh
// attempt budget.
func (o *Outbox) Requeue(seq uint64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	e, ok := o.dead[seq]
	if !ok {
		return fmt.Errorf("relay: requeue: no dead-lettered entry %d", seq)
	}
	if err := o.write(walRecord{Op: "requeue", Seq: seq}); err != nil {
		return err
	}
	delete(o.dead, seq)
	e.Reason = ""
	e.Attempts = 0
	o.pending[seq] = e
	return nil
}

// Drop discards a dead-lettered entry permanently.
func (o *Outbox) Drop(seq uint64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	e, ok := o.dead[seq]
	if !ok {
		return fmt.Errorf("relay: drop: no dead-lettered entry %d", seq)
	}
	if err := o.write(walRecord{Op: "drop", Seq: seq}); err != nil {
		return err
	}
	delete(o.dead, seq)
	o.forgetLive(e)
	return nil
}

// Pending returns the live entries in sequence order.
func (o *Outbox) Pending() []Entry {
	o.mu.Lock()
	defer o.mu.Unlock()
	return sortedCopies(o.pending)
}

// DeadLetters returns the dead-letter queue in sequence order.
func (o *Outbox) DeadLetters() []Entry {
	o.mu.Lock()
	defer o.mu.Unlock()
	return sortedCopies(o.dead)
}

// Counts returns (pending, dead) sizes in one lock acquisition.
func (o *Outbox) Counts() (pending, dead int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.pending), len(o.dead)
}

func sortedCopies(m map[uint64]*Entry) []Entry {
	out := make([]Entry, 0, len(m))
	for _, e := range m {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Compact rewrites the journal so it holds only live state: one enq
// record per pending entry, and enq+dead records per dead letter.
func (o *Outbox) Compact() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.compactLocked()
}

func (o *Outbox) compactLocked() error {
	o.acks = 0
	if o.log == nil {
		return nil
	}
	err := o.log.Rewrite(func(put func(payload []byte) error) error {
		for _, e := range sortedCopies(o.pending) {
			if err := journal(enqRecord(e), put); err != nil {
				return err
			}
		}
		for _, e := range sortedCopies(o.dead) {
			if err := journal(enqRecord(e), put); err != nil {
				return err
			}
			if err := journal(walRecord{Op: "dead", Seq: e.Seq, Reason: e.Reason}, put); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("relay: compacting outbox: %w", err)
	}
	return nil
}

// Close flushes and closes the journal; the outbox is unusable after.
func (o *Outbox) Close() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.log == nil {
		return nil
	}
	err := o.log.Close()
	o.log = nil
	return err
}
