// Package xmltree provides a small, mutable XML document tree with a
// deterministic canonical serialization.
//
// It is the foundation of the DRA4WfMS document format: XML digital
// signatures (package dsig) digest the canonical bytes of subtrees, and
// element-wise encryption (package xmlenc) replaces subtrees in place.
//
// The tree model is deliberately simpler than a full DOM:
//
//   - two node kinds only, elements and text (no comments, processing
//     instructions, or CDATA — CDATA sections parse into plain text nodes);
//   - no namespace support: DRA4WfMS documents do not declare namespaces,
//     and the canonical form is defined over plain element and attribute
//     names (a parse error is reported if a namespace declaration is seen);
//   - attributes keep insertion order for storage but are sorted by name in
//     the canonical serialization, mirroring Canonical XML.
//
// Parse is one hand-written pass over the input bytes. The tree's names,
// attribute values and text are substrings of one copy of the input, so a
// caller that keeps a small piece of a parsed tree beyond the tree's life
// (a map key, a long-lived record) should strings.Clone it. Where an
// element's input span is already its canonical form (the rules below),
// Parse seeds the element's canonical memo with that span, so Canonical
// on a freshly parsed canonical document returns the input's own bytes
// without serializing. Seeded are the elements that carry an Id, their
// non-leaf children, and the ancestors of those.
// Parse accepts what encoding/xml's strict decoder accepts, with the same
// checks:
//
//   - UTF-8 only: invalid UTF-8, characters outside XML 1.0's Char
//     production, and an XML declaration naming another encoding (or a
//     version other than 1.0) are errors;
//   - element, attribute and PI target names follow XML 1.0's Name
//     production; a prefixed name (one inner colon) or an xmlns attribute
//     is ErrNamespace, and a name with two colons is an error;
//   - references are the five predefined entities (lt, gt, amp, apos,
//     quot) and decimal or x-hex character references, nothing else;
//   - attribute values are quoted and contain no '<'; text contains no
//     "]]>"; comments contain no "--";
//   - end tags match, there is one root, and only whitespace is outside
//     it; comments, PIs and <!...> declarations are skipped anywhere;
//   - CR and CRLF become LF, and adjacent character data (text and CDATA,
//     also across a comment or PI) is one text node.
//
// Two inputs encoding/xml accepts are rejected: an element that repeats an
// attribute name (XML 1.0's "Unique Att Spec"), and a character reference
// to a surrogate (D800–DFFF), which encoding/xml rewrote to U+FFFD.
//
// Canonical form rules (a pragmatic subset of W3C C14N 1.0):
//
//   - UTF-8 output;
//   - attributes sorted lexicographically by name, values double-quoted;
//   - empty elements serialize as <a></a>, never <a/>;
//   - text escapes &, <, > and carriage return; attribute values escape
//     &, <, " and the whitespace characters TAB, CR, LF;
//   - no XML declaration, no insignificant whitespace added or removed.
package xmltree

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"dra4wfms/internal/telemetry"
)

// Canonical-bytes memoization telemetry (the verification fast path:
// repeated digesting of an unchanged prefix must not re-serialize it).
var (
	mMemoHits          = telemetry.Default().Counter("xmltree_canon_memo_hits_total")
	mMemoMisses        = telemetry.Default().Counter("xmltree_canon_memo_misses_total")
	mMemoInvalidations = telemetry.Default().Counter("xmltree_canon_memo_invalidations_total")
	mScratchNews       = telemetry.Default().Counter("xmltree_canon_scratch_news_total")
)

// scratchPool recycles the serialization buffers behind Canonical. The
// memo used to keep each serialization's entire bytes.Buffer backing array
// alive (and every call that missed the memo allocated a fresh one);
// with the pool, serialization scratch is reused across calls and the
// memo holds an exact-size copy. The New counter feeds the allocation
// regression test: steady-state canonicalization must reuse, not grow.
var scratchPool = sync.Pool{
	New: func() any {
		mScratchNews.Inc()
		return new(bytes.Buffer)
	},
}

// scratchNews reports how many fresh scratch buffers have been allocated
// process-wide (test hook for pooled-buffer reuse).
func scratchNews() int64 { return mScratchNews.Value() }

// Kind discriminates the two node kinds in a tree.
type Kind int

const (
	// ElementKind is an element node with a name, attributes and children.
	ElementKind Kind = iota
	// TextKind is a character-data node; only Text is meaningful.
	TextKind
)

// Attr is a single element attribute.
type Attr struct {
	Name  string
	Value string
}

// Node is one node of an XML tree. The zero value is an empty element with
// no name; use NewElement and NewText to construct nodes.
//
// Canonical serialization results are memoized per node (see Canonical).
// Mutating a subtree through the Node methods (SetAttr, AppendChild,
// SetText, …) invalidates affected memos automatically. Writing the
// exported fields directly is still possible for construction, but after
// Canonical has been called on an enclosing subtree such writes must be
// followed by Invalidate on the modified node (or an ancestor) — the
// generation accumulator catches most direct edits as a safety net, but
// only method mutations are guaranteed to be seen.
type Node struct {
	Kind     Kind
	Name     string  // element name; empty for text nodes
	Attrs    []Attr  // attributes in insertion order; nil for text nodes
	Children []*Node // child nodes in document order; nil for text nodes
	Text     string  // character data; empty for element nodes

	gen  uint64                    // bumped by every method mutation
	memo atomic.Pointer[canonMemo] // cached canonical bytes + accumulator
	// lastLen remembers the most recent canonical length. Unlike the memo
	// it survives invalidation, so a re-serialization after a mutation can
	// size its scratch buffer in one Grow instead of doubling up to it.
	lastLen atomic.Uint32
}

// canonMemo is a cached canonical serialization, valid while the subtree
// accumulator (an order-sensitive fold over every node's generation and
// shape) still evaluates to acc.
type canonMemo struct {
	acc  uint64
	data []byte
}

// touch records a mutation of n: the generation counter is bumped (which
// changes the accumulator of every enclosing subtree) and any canonical
// memo cached on n itself is dropped.
func (n *Node) touch() {
	n.gen++
	if n.memo.Load() != nil {
		n.memo.Store(nil)
		mMemoInvalidations.Inc()
	}
}

// Invalidate marks n as mutated, dropping any cached canonical bytes for n
// and making memos cached on ancestors stale. Call it after writing the
// exported fields of a node directly; the mutating methods call it
// implicitly.
func (n *Node) Invalidate() { n.touch() }

// accum folds the subtree rooted at n into an FNV-style accumulator. It
// covers each node's generation counter plus enough shape information
// (kind, name/text/attribute lengths, child count) that direct field edits
// which change any length are caught even without a gen bump. The fold is
// composable: a node's value depends only on its own fields and its
// children's values, in order, so Parse computes every element's value
// bottom-up at its end tag and seeds the memo with it. Each step is a
// bijection of the running value, so a changed generation anywhere in the
// subtree always changes the result.
func (n *Node) accum() uint64 {
	h := n.accumHead()
	for _, c := range n.Children {
		h = mix(h, c.accum())
	}
	return h
}

// accumHead folds n's own generation and shape, the part of accum that
// does not recurse.
func (n *Node) accumHead() uint64 {
	h := mix(fnvOffset, n.gen)
	h = mix(h, uint64(len(n.Text))<<1|uint64(n.Kind&1))
	h = mix(h, uint64(len(n.Name))<<40^uint64(len(n.Attrs))<<24^uint64(len(n.Children)))
	for _, a := range n.Attrs {
		h = mix(h, uint64(len(a.Name))<<40^uint64(len(a.Value)))
	}
	return h
}

const (
	fnvOffset = 14695981039346656037 // FNV-64 offset basis
	fnvPrime  = 1099511628211        // FNV-64 prime
)

func mix(h, v uint64) uint64 { return (h ^ v) * fnvPrime }

// NewElement returns a new element node with the given name.
func NewElement(name string) *Node {
	return &Node{Kind: ElementKind, Name: name}
}

// NewText returns a new text node carrying s.
func NewText(s string) *Node {
	return &Node{Kind: TextKind, Text: s}
}

// Elem creates an element with optional text content and appends it as a
// child of n, returning the new element. It is a convenience for building
// documents: parent.Elem("Name", "text").
func (n *Node) Elem(name, text string) *Node {
	e := NewElement(name)
	if text != "" {
		e.AppendChild(NewText(text))
	}
	n.AppendChild(e)
	return e
}

// IsElement reports whether n is an element node.
func (n *Node) IsElement() bool { return n != nil && n.Kind == ElementKind }

// IsText reports whether n is a text node.
func (n *Node) IsText() bool { return n != nil && n.Kind == TextKind }

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// AttrDefault returns the value of the named attribute, or def if absent.
func (n *Node) AttrDefault(name, def string) string {
	if v, ok := n.Attr(name); ok {
		return v
	}
	return def
}

// SetAttr sets the named attribute, replacing an existing value or
// appending a new attribute. It returns n to allow chaining.
func (n *Node) SetAttr(name, value string) *Node {
	n.touch()
	for i, a := range n.Attrs {
		if a.Name == name {
			n.Attrs[i].Value = value
			return n
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
	return n
}

// RemoveAttr deletes the named attribute if present and reports whether a
// deletion happened.
func (n *Node) RemoveAttr(name string) bool {
	for i, a := range n.Attrs {
		if a.Name == name {
			n.touch()
			n.Attrs = append(n.Attrs[:i], n.Attrs[i+1:]...)
			return true
		}
	}
	return false
}

// AppendChild appends c as the last child of n.
func (n *Node) AppendChild(c *Node) *Node {
	n.touch()
	n.Children = append(n.Children, c)
	return n
}

// InsertChild inserts c at index i among n's children. Out-of-range indices
// clamp to the valid range.
func (n *Node) InsertChild(i int, c *Node) {
	n.touch()
	if i < 0 {
		i = 0
	}
	if i > len(n.Children) {
		i = len(n.Children)
	}
	n.Children = append(n.Children, nil)
	copy(n.Children[i+1:], n.Children[i:])
	n.Children[i] = c
}

// RemoveChild removes the first occurrence of c (pointer identity) from n's
// children and reports whether it was found.
func (n *Node) RemoveChild(c *Node) bool {
	for i, k := range n.Children {
		if k == c {
			n.touch()
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
			return true
		}
	}
	return false
}

// ReplaceChild replaces the first occurrence of old (pointer identity) with
// repl and reports whether a replacement happened.
func (n *Node) ReplaceChild(old, repl *Node) bool {
	for i, k := range n.Children {
		if k == old {
			n.touch()
			n.Children[i] = repl
			return true
		}
	}
	return false
}

// ChildElements returns n's direct element children, skipping text nodes.
func (n *Node) ChildElements() []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.IsElement() {
			out = append(out, c)
		}
	}
	return out
}

// Child returns the first direct child element with the given name, or nil.
func (n *Node) Child(name string) *Node {
	for _, c := range n.Children {
		if c.IsElement() && c.Name == name {
			return c
		}
	}
	return nil
}

// ChildText returns the text content of the first direct child element with
// the given name, or "" if there is no such child.
func (n *Node) ChildText(name string) string {
	if c := n.Child(name); c != nil {
		return c.TextContent()
	}
	return ""
}

// Find returns the first element in the subtree rooted at n (including n
// itself) whose name matches, in depth-first document order, or nil.
func (n *Node) Find(name string) *Node {
	if n.IsElement() && n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if c.IsElement() {
			if m := c.Find(name); m != nil {
				return m
			}
		}
	}
	return nil
}

// FindAll returns every element in the subtree rooted at n (including n)
// whose name matches, in depth-first document order.
func (n *Node) FindAll(name string) []*Node {
	var out []*Node
	n.Walk(func(e *Node) bool {
		if e.Name == name {
			out = append(out, e)
		}
		return true
	})
	return out
}

// hasID reports whether n carries an "Id" attribute.
func (n *Node) hasID() bool {
	_, ok := n.Attr("Id")
	return ok
}

// FindByID returns the element in the subtree whose "Id" attribute equals
// id, or nil. DRA4WfMS signatures reference signed subtrees by Id.
func (n *Node) FindByID(id string) *Node {
	var found *Node
	n.Walk(func(e *Node) bool {
		if v, ok := e.Attr("Id"); ok && v == id {
			found = e
			return false
		}
		return true
	})
	return found
}

// Parent returns the parent element of target within the subtree rooted at
// n, or nil if target is n itself or is not in the subtree.
func (n *Node) Parent(target *Node) *Node {
	var parent *Node
	var rec func(e *Node) bool
	rec = func(e *Node) bool {
		for _, c := range e.Children {
			if c == target {
				parent = e
				return true
			}
			if c.IsElement() && rec(c) {
				return true
			}
		}
		return false
	}
	rec(n)
	return parent
}

// Walk visits every element in the subtree rooted at n in depth-first
// document order, calling fn for each. If fn returns false the walk stops.
func (n *Node) Walk(fn func(*Node) bool) {
	if !n.IsElement() {
		return
	}
	stop := false
	var rec func(e *Node)
	rec = func(e *Node) {
		if stop {
			return
		}
		if !fn(e) {
			stop = true
			return
		}
		for _, c := range e.Children {
			if c.IsElement() {
				rec(c)
			}
		}
	}
	rec(n)
}

// TextContent returns the concatenation of all text nodes in the subtree,
// in document order.
func (n *Node) TextContent() string {
	var b strings.Builder
	var rec func(e *Node)
	rec = func(e *Node) {
		if e.IsText() {
			b.WriteString(e.Text)
			return
		}
		for _, c := range e.Children {
			rec(c)
		}
	}
	rec(n)
	return b.String()
}

// SetText replaces all children of n with a single text node carrying s.
func (n *Node) SetText(s string) *Node {
	n.touch()
	n.Children = n.Children[:0]
	if s != "" {
		n.Children = append(n.Children, NewText(s))
	}
	return n
}

// Clone returns a deep copy of the subtree rooted at n. Canonical memos
// are deliberately not carried over: a clone is a common prelude to direct
// field surgery (tamper tests, element-wise encryption), and a fresh tree
// must never serve bytes cached on its original. A copy that is only
// appended to need not be deep: document.Fork shares the unchanged
// elements, memos included.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := &Node{Kind: n.Kind, Name: n.Name, Text: n.Text}
	if n.Attrs != nil {
		c.Attrs = make([]Attr, len(n.Attrs))
		copy(c.Attrs, n.Attrs)
	}
	if n.Children != nil {
		c.Children = make([]*Node, len(n.Children))
		for i, k := range n.Children {
			c.Children[i] = k.Clone()
		}
	}
	return c
}

// Equal reports whether two subtrees are structurally identical: same node
// kinds, names, attribute sets (order-insensitive) and children (order-
// sensitive). Adjacent text nodes are not merged before comparison.
func Equal(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind {
		return false
	}
	if a.Kind == TextKind {
		return a.Text == b.Text
	}
	if a.Name != b.Name || len(a.Attrs) != len(b.Attrs) || len(a.Children) != len(b.Children) {
		return false
	}
	for _, attr := range a.Attrs {
		v, ok := b.Attr(attr.Name)
		if !ok || v != attr.Value {
			return false
		}
	}
	for i := range a.Children {
		if !Equal(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// Canonical returns the canonical serialization of the subtree rooted at n.
// Two structurally equal trees always produce identical canonical bytes,
// regardless of attribute insertion order.
//
// The result is memoized on n and revalidated against the subtree's
// generation accumulator on every call, so repeated canonicalization of an
// unchanged subtree costs one O(nodes) walk instead of a full
// re-serialization, and valid memos cached on descendants are spliced in
// when the subtree around them changed. The returned slice is shared with
// the memo and with future callers, and for a memo Parse seeded, with the
// parsed input and the tree's strings: treat it as immutable.
//
// Concurrent Canonical calls on a shared tree are safe with each other;
// they are not safe against concurrent mutation (the usual reader/writer
// contract of the tree itself).
func (n *Node) Canonical() []byte {
	acc := n.accum()
	m := n.memo.Load()
	if m != nil && m.acc == acc {
		mMemoHits.Inc()
		return m.data
	}
	mMemoMisses.Inc()
	b := scratchPool.Get().(*bytes.Buffer)
	b.Reset()
	if hint := int(n.lastLen.Load()); hint > 0 {
		b.Grow(hint)
	} else if m != nil {
		b.Grow(len(m.data)) // a stale seed from Parse
	}
	if n.IsText() {
		escapeText(b, n.Text)
	} else {
		writeCanonicalElem(b, n)
	}
	// Copy out at exact size: the memo must not pin the (possibly much
	// larger) scratch backing array, and the scratch goes back to the pool.
	data := make([]byte, b.Len())
	copy(data, b.Bytes())
	scratchPool.Put(b)
	if len(data) <= int(^uint32(0)) {
		n.lastLen.Store(uint32(len(data)))
	}
	n.memo.Store(&canonMemo{acc: acc, data: data})
	return data
}

// String returns the canonical serialization as a string; it implements
// fmt.Stringer for debugging convenience.
func (n *Node) String() string { return string(n.Canonical()) }

// Indent returns a human-readable, indented rendering of the subtree. The
// output is NOT canonical (whitespace is added) and must never be digested;
// it exists for logs, CLIs and documentation.
func (n *Node) Indent() string {
	var b bytes.Buffer
	writeIndented(&b, n, 0)
	return b.String()
}

func writeIndented(b *bytes.Buffer, n *Node, depth int) {
	ind := strings.Repeat("  ", depth)
	if n.IsText() {
		t := strings.TrimSpace(n.Text)
		if t != "" {
			b.WriteString(ind)
			escapeText(b, t)
			b.WriteByte('\n')
		}
		return
	}
	b.WriteString(ind)
	b.WriteByte('<')
	b.WriteString(n.Name)
	for _, a := range sortedAttrs(n.Attrs) {
		b.WriteByte(' ')
		b.WriteString(a.Name)
		b.WriteString(`="`)
		escapeAttr(b, a.Value)
		b.WriteByte('"')
	}
	if len(n.Children) == 0 {
		b.WriteString("></")
		b.WriteString(n.Name)
		b.WriteString(">\n")
		return
	}
	// Single text child renders inline.
	if len(n.Children) == 1 && n.Children[0].IsText() {
		b.WriteByte('>')
		escapeText(b, n.Children[0].Text)
		b.WriteString("</")
		b.WriteString(n.Name)
		b.WriteString(">\n")
		return
	}
	b.WriteString(">\n")
	for _, c := range n.Children {
		writeIndented(b, c, depth+1)
	}
	b.WriteString(ind)
	b.WriteString("</")
	b.WriteString(n.Name)
	b.WriteString(">\n")
}

func sortedAttrs(attrs []Attr) []Attr {
	if len(attrs) < 2 {
		return attrs
	}
	// Attributes are usually inserted in sorted order already (SetAttr in
	// builder code tends to follow the canonical order); detect that and
	// skip the per-serialization copy.
	sorted := true
	for i := 1; i < len(attrs); i++ {
		if attrs[i-1].Name > attrs[i].Name {
			sorted = false
			break
		}
	}
	if sorted {
		return attrs
	}
	s := make([]Attr, len(attrs))
	copy(s, attrs)
	// Stable: Parse refuses a repeated name, but a tree built by hand can
	// hold one, and its canonical bytes must still be one defined string.
	slices.SortStableFunc(s, func(a, b Attr) int { return strings.Compare(a.Name, b.Name) })
	return s
}

// writeCanonical serializes n into b, splicing in a still-valid canonical
// memo cached on n by an earlier Canonical call instead of re-serializing
// that subtree.
func writeCanonical(b *bytes.Buffer, n *Node) {
	if n.IsText() {
		escapeText(b, n.Text)
		return
	}
	if m := n.memo.Load(); m != nil && m.acc == n.accum() {
		mMemoHits.Inc()
		b.Write(m.data)
		return
	}
	writeCanonicalElem(b, n)
}

// writeCanonicalElem serializes an element without consulting n's own memo
// (children still reuse theirs).
func writeCanonicalElem(b *bytes.Buffer, n *Node) {
	b.WriteByte('<')
	b.WriteString(n.Name)
	for _, a := range sortedAttrs(n.Attrs) {
		b.WriteByte(' ')
		b.WriteString(a.Name)
		b.WriteString(`="`)
		escapeAttr(b, a.Value)
		b.WriteByte('"')
	}
	b.WriteByte('>')
	for _, c := range n.Children {
		writeCanonical(b, c)
	}
	b.WriteString("</")
	b.WriteString(n.Name)
	b.WriteByte('>')
}

// escapeText and escapeAttr write clean spans in one WriteString call and
// only switch per-byte at an actual escape — most text has none, making
// the common case a single bulk copy instead of len(s) WriteByte calls.

func escapeText(b *bytes.Buffer, s string) {
	start := 0
	for i := 0; i < len(s); i++ {
		var repl string
		switch s[i] {
		case '&':
			repl = "&amp;"
		case '<':
			repl = "&lt;"
		case '>':
			repl = "&gt;"
		case '\r':
			repl = "&#xD;"
		default:
			continue
		}
		b.WriteString(s[start:i])
		b.WriteString(repl)
		start = i + 1
	}
	b.WriteString(s[start:])
}

func escapeAttr(b *bytes.Buffer, s string) {
	start := 0
	for i := 0; i < len(s); i++ {
		var repl string
		switch s[i] {
		case '&':
			repl = "&amp;"
		case '<':
			repl = "&lt;"
		case '"':
			repl = "&quot;"
		case '\t':
			repl = "&#x9;"
		case '\n':
			repl = "&#xA;"
		case '\r':
			repl = "&#xD;"
		default:
			continue
		}
		b.WriteString(s[start:i])
		b.WriteString(repl)
		start = i + 1
	}
	b.WriteString(s[start:])
}

// Normalize merges adjacent text children and removes empty text nodes
// throughout the subtree, in place. Canonical serialization followed by
// parsing yields a normalized tree; normalizing both sides makes
// Equal(t, reparse(canonical(t))) hold for any tree.
func (n *Node) Normalize() {
	if !n.IsElement() {
		return
	}
	out := n.Children[:0]
	changed := false
	for _, c := range n.Children {
		if c.IsText() {
			if c.Text == "" {
				changed = true
				continue
			}
			if len(out) > 0 && out[len(out)-1].IsText() {
				out[len(out)-1].touch()
				out[len(out)-1].Text += c.Text
				changed = true
				continue
			}
		} else {
			c.Normalize()
		}
		out = append(out, c)
	}
	if changed {
		n.touch()
	}
	n.Children = out
}

// Size returns the number of nodes (elements and text) in the subtree.
func (n *Node) Size() int {
	if n == nil {
		return 0
	}
	total := 1
	for _, c := range n.Children {
		total += c.Size()
	}
	return total
}
