// Package chaos is the deterministic fault-injection layer for the
// DRA4WfMS cluster. It models the network between named nodes as a
// shared Network: every hop (src → dst) is judged against a fault
// profile — latency, drops, duplicates, lost acknowledgements, byte
// corruption — plus an N×N
// reachability matrix for asymmetric partitions, per-node slowness, and
// whole-node crash/restart. The same Network drives three injection
// points so in-process benches and real daemons share one fault model:
//
//   - RoundTripper wraps an http.RoundTripper (client side);
//   - WrapListener wraps a net.Listener (server side: crash + slow);
//   - Gate wraps an http.Handler (server side: inbound partitions);
//   - NodeRef wraps a poolcluster.NodeRef (in-process clusters).
//
// Everything is driven by one seeded PRNG under the Network's mutex, so
// a scenario replays byte-identically for the same seed and the package
// stays clean under the nondeterminism lint: no time-seeded randomness,
// no clock reads feeding decisions.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Wildcard matches any node on one side of a link ("*" → dst, src → "*").
const Wildcard = "*"

// LinkFaults is the fault profile of one directed link. Probabilities
// are in [0, 1]; Latency is the base one-way delay and Jitter an extra
// uniform random amount on top.
type LinkFaults struct {
	// Drop is the probability the message is lost (the sender sees a
	// transport error, exactly like a timed-out or refused connection).
	Drop float64 `json:"drop,omitempty"`
	// Dup is the probability the message is delivered twice.
	Dup float64 `json:"dup,omitempty"`
	// AckLoss is the probability the message is delivered but its
	// response is lost: the receiver applied it, the sender sees a
	// transport error and retries into the receiver's dedup.
	AckLoss float64 `json:"ack_loss,omitempty"`
	// Corrupt is the probability the payload is bit-flipped in flight.
	Corrupt float64 `json:"corrupt,omitempty"`
	// Latency is the base injected one-way delay.
	Latency time.Duration `json:"latency,omitempty"`
	// Jitter adds a uniform random delay in [0, Jitter).
	Jitter time.Duration `json:"jitter,omitempty"`
}

// Verdict is one judged hop: what the fault layer decided to do to this
// particular message.
type Verdict struct {
	// Drop: the message must not be delivered; the sender sees an error.
	Drop bool
	// Dup: deliver the message twice (exercises idempotency/dedup).
	Dup bool
	// AckLoss: deliver the message, then fail the response.
	AckLoss bool
	// Corrupt: flip a byte of the payload in flight.
	Corrupt bool
	// Delay: sleep this long before delivering.
	Delay time.Duration
}

// linkKey identifies one directed link.
type linkKey struct{ src, dst string }

// Network is the shared fault model. All methods are safe for
// concurrent use; the zero value is not usable — construct with
// NewNetwork.
type Network struct {
	mu  sync.Mutex
	rng *rand.Rand

	def   LinkFaults
	links map[linkKey]LinkFaults
	// cut is the reachability matrix: a true entry severs the directed
	// link. Wildcard entries sever whole rows/columns (Isolate).
	cut  map[linkKey]bool
	down map[string]bool
	slow map[string]time.Duration
}

// NewNetwork builds a fault-free network driven by the given seed. The
// same seed and the same sequence of judged hops replay identically.
func NewNetwork(seed int64) *Network {
	return &Network{
		rng:   rand.New(rand.NewSource(seed)),
		links: make(map[linkKey]LinkFaults),
		cut:   make(map[linkKey]bool),
		down:  make(map[string]bool),
		slow:  make(map[string]time.Duration),
	}
}

// SetDefault sets the fault profile applied to links with no specific
// override.
func (n *Network) SetDefault(f LinkFaults) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.def = f
}

// SetLink overrides the fault profile of one directed link. Either side
// may be Wildcard; lookup precedence is exact, (src, *), (*, dst), then
// the default profile.
func (n *Network) SetLink(src, dst string, f LinkFaults) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[linkKey{src, dst}] = f
}

// ClearLink removes a per-link override.
func (n *Network) ClearLink(src, dst string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.links, linkKey{src, dst})
}

// Cut severs the directed link src → dst (asymmetric partition: dst may
// still reach src unless the reverse is cut too).
func (n *Network) Cut(src, dst string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut[linkKey{src, dst}] = true
}

// CutBoth severs both directions between a and b.
func (n *Network) CutBoth(a, b string) {
	n.Cut(a, b)
	n.Cut(b, a)
}

// Isolate severs every link to and from the node — a full partition.
func (n *Network) Isolate(node string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut[linkKey{node, Wildcard}] = true
	n.cut[linkKey{Wildcard, node}] = true
}

// Heal restores the directed link src → dst.
func (n *Network) Heal(src, dst string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.cut, linkKey{src, dst})
}

// HealBoth restores both directions between a and b.
func (n *Network) HealBoth(a, b string) {
	n.Heal(a, b)
	n.Heal(b, a)
}

// HealNode removes every cut involving the node, including wildcard
// isolation rows.
func (n *Network) HealNode(node string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for k := range n.cut {
		if k.src == node || k.dst == node {
			delete(n.cut, k)
		}
	}
}

// HealAll clears the whole reachability matrix.
func (n *Network) HealAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut = make(map[linkKey]bool)
}

// Crash marks the node's process dead: its listener refuses work and
// every hop to or from it drops.
func (n *Network) Crash(node string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down[node] = true
}

// Restart revives a crashed node.
func (n *Network) Restart(node string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.down, node)
}

// Down reports whether the node is crashed.
func (n *Network) Down(node string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down[node]
}

// SlowNode imposes an extra per-message delay on everything the node
// serves (d <= 0 clears it).
func (n *Network) SlowNode(node string, d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if d <= 0 {
		delete(n.slow, node)
		return
	}
	n.slow[node] = d
}

// NodeDelay reports the node's configured slowness.
func (n *Network) NodeDelay(node string) time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.slow[node]
}

// Reachable reports whether the directed link src → dst is up: neither
// endpoint crashed and no cut (exact or wildcard) severs it.
func (n *Network) Reachable(src, dst string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.reachableLocked(src, dst)
}

func (n *Network) reachableLocked(src, dst string) bool {
	if n.down[src] || n.down[dst] {
		return false
	}
	if n.cut[linkKey{src, dst}] {
		return false
	}
	if n.cut[linkKey{src, Wildcard}] || n.cut[linkKey{Wildcard, dst}] {
		return false
	}
	if n.cut[linkKey{dst, Wildcard}] || n.cut[linkKey{Wildcard, src}] {
		// Isolation is total: a node cut from the world neither sends
		// nor receives, whichever wildcard row recorded it.
		return false
	}
	return true
}

// faultsLocked resolves the fault profile for one directed link.
func (n *Network) faultsLocked(src, dst string) LinkFaults {
	if f, ok := n.links[linkKey{src, dst}]; ok {
		return f
	}
	if f, ok := n.links[linkKey{src, Wildcard}]; ok {
		return f
	}
	if f, ok := n.links[linkKey{Wildcard, dst}]; ok {
		return f
	}
	return n.def
}

// Judge decides the fate of one message on the directed link src → dst.
// Unreachable links always drop; otherwise each fault fires
// independently from the seeded PRNG.
func (n *Network) Judge(src, dst string) Verdict {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.reachableLocked(src, dst) {
		return Verdict{Drop: true}
	}
	f := n.faultsLocked(src, dst)
	var v Verdict
	if f.Drop > 0 && n.rng.Float64() < f.Drop {
		return Verdict{Drop: true}
	}
	if f.Dup > 0 && n.rng.Float64() < f.Dup {
		v.Dup = true
	}
	if f.AckLoss > 0 && n.rng.Float64() < f.AckLoss {
		v.AckLoss = true
	}
	if f.Corrupt > 0 && n.rng.Float64() < f.Corrupt {
		v.Corrupt = true
	}
	v.Delay = f.Latency
	if f.Jitter > 0 {
		v.Delay += time.Duration(n.rng.Int63n(int64(f.Jitter)))
	}
	if d := n.slow[dst]; d > 0 {
		v.Delay += d
	}
	return v
}

// CorruptIndex picks the byte offset to flip in an n-byte payload.
func (n *Network) CorruptIndex(size int) int {
	if size <= 0 {
		return 0
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rng.Intn(size)
}

// LinkState is one row of the network's observable state.
type LinkState struct {
	Src    string     `json:"src"`
	Dst    string     `json:"dst"`
	Cut    bool       `json:"cut,omitempty"`
	Faults LinkFaults `json:"faults,omitempty"`
}

// State is a snapshot of the whole fault model, served by the admin
// endpoint so drills can assert what they injected.
type State struct {
	Default LinkFaults               `json:"default,omitempty"`
	Links   []LinkState              `json:"links,omitempty"`
	Cuts    []LinkState              `json:"cuts,omitempty"`
	Down    []string                 `json:"down,omitempty"`
	Slow    map[string]time.Duration `json:"slow,omitempty"`
}

// Snapshot returns the current fault model in a stable order.
func (n *Network) Snapshot() State {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := State{Default: n.def}
	for k, f := range n.links {
		st.Links = append(st.Links, LinkState{Src: k.src, Dst: k.dst, Faults: f})
	}
	for k := range n.cut {
		st.Cuts = append(st.Cuts, LinkState{Src: k.src, Dst: k.dst, Cut: true})
	}
	for id := range n.down {
		st.Down = append(st.Down, id)
	}
	if len(n.slow) > 0 {
		st.Slow = make(map[string]time.Duration, len(n.slow))
		for id, d := range n.slow {
			st.Slow[id] = d
		}
	}
	sortLinks(st.Links)
	sortLinks(st.Cuts)
	sort.Strings(st.Down)
	return st
}

func sortLinks(ls []LinkState) {
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].Src != ls[j].Src {
			return ls[i].Src < ls[j].Src
		}
		return ls[i].Dst < ls[j].Dst
	})
}

// ErrInjected wraps every chaos-caused failure so callers (and tests)
// can tell injected faults from real ones.
type injectedError struct{ msg string }

func (e *injectedError) Error() string { return e.msg }

// Injected reports whether err was produced (possibly wrapped) by this
// package.
func Injected(err error) bool {
	var ie *injectedError
	return errors.As(err, &ie)
}

func injectedf(format string, args ...any) error {
	return &injectedError{msg: "chaos: " + fmt.Sprintf(format, args...)}
}
