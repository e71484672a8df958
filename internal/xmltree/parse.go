package xmltree

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// ErrNamespace is returned by Parse when the input declares or uses XML
// namespaces, which the DRA4WfMS document format does not employ.
var ErrNamespace = errors.New("xmltree: namespaced XML is not supported")

// Parse reads a single XML document from r and returns its root element.
// Comments, processing instructions and declarations are discarded; CDATA
// becomes plain text. Namespaced input is rejected with ErrNamespace. The
// accepted syntax is listed in the package documentation.
func Parse(r io.Reader) (*Node, error) {
	var b strings.Builder
	if _, err := io.Copy(&b, r); err != nil {
		return nil, fmt.Errorf("xmltree: %w", err)
	}
	return parse(b.String())
}

// ParseBytes parses an XML document held in b. See Parse. The tree never
// refers to b, so the caller may reuse it.
func ParseBytes(b []byte) (*Node, error) { return parse(string(b)) }

// ParseOwned parses an XML document held in b without copying it: the
// tree's strings and seeded memos are views of b, so the caller hands b
// over and must never write to it again. It is for buffers that were read
// only to be parsed, such as a request or response body.
func ParseOwned(b []byte) (*Node, error) {
	return parse(unsafe.String(unsafe.SliceData(b), len(b)))
}

// ParseString parses an XML document held in s. See Parse.
func ParseString(s string) (*Node, error) { return parse(s) }

// maxChunk caps one slab allocation, so the node estimate taken from an
// adversarial input (every byte a '<') cannot become one huge allocation.
const maxChunk = 4096

// parser is a single pass over one document held in a string. Names,
// attribute values and text are substrings of s unless a reference or a
// carriage return had to be rewritten; nodes, attribute lists and child
// lists are carved from shared slabs with their capacity clipped, so a
// later append on a parsed node reallocates instead of overwriting a
// neighbour.
//
// The parser also seeds canonical memos. An element whose input span is
// byte for byte its canonical serialization (startTag, value and endTag
// check the spelling; endTag says which elements qualify) gets that span
// as its memo, valid under the accumulator value computed at its end tag
// from its children's values; Canonical then serves the span until a
// mutation changes the accumulator.
type parser struct {
	s string
	i int // read position

	// Slab refill sizes, estimated from byte counts so that a typical
	// document fills about one slab of each: an element has two tags,
	// there are about half as many text nodes as elements and fewer
	// seeded memos than that, and an attribute has an '='. An estimate
	// that falls short costs one more slab.
	nodeChunk, attrChunk, memoChunk int

	nodes []Node
	attrs []Attr
	ptrs  []*Node
	memos []canonMemo

	root *Node
	open []frame
	kids []*Node  // children of the open elements, innermost last
	kacc []uint64 // accum of each closed element in kids (text: unused)
	tag  []Attr   // attributes of the start tag being read
	buf  []byte   // decoded character data

	// merged is the text node whose Text is being accumulated in mbuf:
	// adjacent character data (text, CDATA, text around a comment) is one
	// node, and concatenating piece by piece would be quadratic.
	merged *Node
	mbuf   []byte
}

type frame struct {
	n      *Node
	kids   int  // index in parser.kids of n's first child
	start  int  // offset of n's '<' in the input
	canon  bool // n's input so far is its canonical form
	id     bool // n carries an Id
	seeded bool // a child of n was seeded
}

func parse(s string) (*Node, error) {
	elems := strings.Count(s, "<")/2 + 1
	p := &parser{
		s:         s,
		nodeChunk: min(elems+elems/2, maxChunk),
		attrChunk: min(strings.Count(s, "=")+1, maxChunk),
		memoChunk: min(elems/2+1, maxChunk),
	}
	for p.i < len(s) {
		var err error
		switch {
		case s[p.i] != '<':
			err = p.charData()
		case p.i+1 == len(s):
			err = p.eof()
		case s[p.i+1] == '/':
			err = p.endTag()
		case s[p.i+1] == '?':
			p.nonCanonical()
			err = p.procInst()
		case s[p.i+1] == '!':
			// A comment, CDATA section or declaration has no canonical
			// form: Canonical drops it or writes it as text.
			p.nonCanonical()
			err = p.bang()
		default:
			err = p.startTag()
		}
		if err != nil {
			return nil, err
		}
	}
	if len(p.open) != 0 {
		return nil, p.eof()
	}
	if p.root == nil {
		return nil, errors.New("xmltree: no root element")
	}
	return p.root, nil
}

// carve returns n zeroed elements of *slab with capacity n, refilling the
// slab with at least size elements when it runs short.
func carve[T any](slab *[]T, n, size int) []T {
	if len(*slab) < n {
		*slab = make([]T, max(n, size))
	}
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

func (p *parser) errorf(at int, format string, args ...any) error {
	line := 1 + strings.Count(p.s[:min(at, len(p.s))], "\n")
	return fmt.Errorf("xmltree: line %d: %s", line, fmt.Sprintf(format, args...))
}

func (p *parser) eof() error { return p.errorf(len(p.s), "unexpected EOF") }

// nonCanonical records that the innermost open element's span is not its
// canonical form, so neither it nor any ancestor gets a memo seeded.
func (p *parser) nonCanonical() {
	if len(p.open) > 0 {
		p.open[len(p.open)-1].canon = false
	}
}

// addKid makes n the next child of the innermost open element.
func (p *parser) addKid(n *Node) {
	p.kids = append(p.kids, n)
	p.kacc = append(p.kacc, 0)
}

// charData reads text up to the next '<' and adds it to the open element.
func (p *parser) charData() error {
	t, canon, err := p.value(0)
	if err != nil {
		return err
	}
	if !canon {
		p.nonCanonical()
	}
	return p.addText(t)
}

// addText appends character data to the open element, merging it into a
// text node that is already the element's last child. Outside the root
// only whitespace is allowed, and it is dropped.
func (p *parser) addText(t string) error {
	if len(p.open) == 0 {
		if strings.TrimSpace(t) != "" {
			return p.errorf(p.i, "character data outside root element")
		}
		return nil
	}
	if k := len(p.kids); k > p.open[len(p.open)-1].kids && p.kids[k-1].Kind == TextKind {
		last := p.kids[k-1]
		if p.merged != last {
			p.flushText()
			p.merged = last
			p.mbuf = append(p.mbuf[:0], last.Text...)
		}
		p.mbuf = append(p.mbuf, t...)
		return nil
	}
	p.flushText()
	n := &carve(&p.nodes, 1, p.nodeChunk)[0]
	n.Kind, n.Text = TextKind, t
	p.addKid(n)
	return nil
}

// flushText stores accumulated merged text into its node.
func (p *parser) flushText() {
	if p.merged != nil {
		p.merged.Text = string(p.mbuf)
		p.merged = nil
	}
}

// startTag reads <name attr="value" ...> or <name .../> at p.i. The tag
// is canonical when it reads <name a="v" b="w"> exactly: one space before
// each attribute, none around '=' or before '>', double quotes, names in
// ascending order and values as the canonical form escapes them.
func (p *parser) startTag() error {
	s, start := p.s, p.i
	name, j := p.name(p.i + 1)
	prefixed, err := p.checkName(name, p.i+1, "element name after <")
	if err != nil {
		return err
	}
	attrs, empty, canon := p.tag[:0], false, true
	for {
		sp := j
		j = skipSpace(s, j)
		if j >= len(s) {
			return p.eof()
		}
		if s[j] == '>' {
			canon = canon && j == sp
			j++
			break
		}
		if s[j] == '/' {
			if j+1 >= len(s) {
				return p.eof()
			}
			if s[j+1] != '>' {
				return p.errorf(j, "expected /> in element")
			}
			j += 2
			empty = true
			break
		}
		canon = canon && j == sp+1 && s[sp] == ' '
		at := j
		var a Attr
		a.Name, j = p.name(j)
		ns, err := p.checkName(a.Name, at, "attribute name in element")
		if err != nil {
			return err
		}
		prefixed = prefixed || ns || a.Name == "xmlns"
		eq := j
		if j = skipSpace(s, j); j >= len(s) {
			return p.eof()
		}
		if s[j] != '=' {
			return p.errorf(j, "attribute name without = in element")
		}
		if j = skipSpace(s, j+1); j >= len(s) {
			return p.eof()
		}
		if q := s[j]; q != '"' && q != '\'' {
			return p.errorf(j, "unquoted or missing attribute value in element")
		}
		canon = canon && j == eq+1 && s[j] == '"' &&
			(len(attrs) == 0 || attrs[len(attrs)-1].Name < a.Name)
		p.i = j + 1
		var vcanon bool
		if a.Value, vcanon, err = p.value(s[j]); err != nil {
			return err
		}
		canon = canon && vcanon
		j = p.i
		attrs = append(attrs, a)
	}
	p.tag = attrs
	if prefixed {
		return ErrNamespace
	}
	if dup := duplicateAttr(attrs); dup != "" {
		return p.errorf(p.i, "attribute %s redefined", dup)
	}
	if len(p.open) == 0 && p.root != nil {
		return errors.New("xmltree: multiple root elements")
	}
	e := &carve(&p.nodes, 1, p.nodeChunk)[0]
	e.Name = name
	if len(attrs) > 0 {
		e.Attrs = carve(&p.attrs, len(attrs), p.attrChunk)
		copy(e.Attrs, attrs)
	}
	if p.root == nil {
		p.root = e
	} else {
		p.addKid(e)
	}
	p.i = j
	if empty {
		// <a/> is not canonical (<a></a> is), so its parent is not either.
		p.nonCanonical()
		return nil
	}
	p.open = append(p.open, frame{n: e, kids: len(p.kids), start: start, canon: canon, id: e.hasID()})
	return nil
}

// duplicateAttr returns a name that occurs twice in attrs, or "". XML 1.0
// forbids it (WFC: Unique Att Spec).
func duplicateAttr(attrs []Attr) string {
	if len(attrs) <= 16 {
		for i := 1; i < len(attrs); i++ {
			for _, a := range attrs[:i] {
				if a.Name == attrs[i].Name {
					return a.Name
				}
			}
		}
		return ""
	}
	seen := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		if seen[a.Name] {
			return a.Name
		}
		seen[a.Name] = true
	}
	return ""
}

// endTag reads </name> at p.i and closes the innermost open element.
func (p *parser) endTag() error {
	s := p.s
	// The name is not checked on its own: it must equal the open
	// element's, which was.
	name, j := p.name(p.i + 2)
	if name == "" {
		if j >= len(s) {
			return p.eof()
		}
		return p.errorf(j, "expected element name after </")
	}
	if j = skipSpace(s, j); j >= len(s) {
		return p.eof()
	}
	if s[j] != '>' {
		return p.errorf(j, "invalid characters between </%s and >", name)
	}
	if len(p.open) == 0 {
		return p.errorf(p.i, "unexpected end element </%s>", name)
	}
	f := p.open[len(p.open)-1]
	if f.n.Name != name {
		return p.errorf(p.i, "element <%s> closed by </%s>", f.n.Name, name)
	}
	p.flushText()
	kids := p.kids[f.kids:]
	if len(kids) > 0 {
		f.n.Children = carve(&p.ptrs, len(kids), p.nodeChunk)
		copy(f.n.Children, kids)
	}
	// Only a canonical element needs its accumulator value: it is seeded,
	// and its parent may be. A non-canonical one makes its ancestors
	// non-canonical too.
	if f.canon = f.canon && j == p.i+2+len(name); f.canon {
		acc, leaf := f.n.accumHead(), true
		for i, k := range kids {
			if k.Kind == TextKind {
				acc = mix(acc, k.accumHead())
			} else {
				acc, leaf = mix(acc, p.kacc[f.kids+i]), false
			}
		}
		if f.kids > 0 {
			p.kacc[f.kids-1] = acc
		}
		// Seeded are the elements whose bytes are asked for alone or
		// spliced from: one that carries an Id (a signature reference),
		// a non-leaf child of one (a signature's SignedInfo), and any
		// ancestor of a seeded element. The rest is serialized only
		// inside a rebuilt parent, one pass over it, and seeding every
		// element would cost each parse more than that saves.
		var parent *frame
		if len(p.open) > 1 {
			parent = &p.open[len(p.open)-2]
		}
		if f.id || f.seeded || !leaf && parent != nil && parent.id {
			p.seed(f.n, acc, p.s[f.start:j+1])
			if parent != nil {
				parent.seeded = true
			}
		}
	}
	p.kids, p.kacc = p.kids[:f.kids], p.kacc[:f.kids]
	p.open = p.open[:len(p.open)-1]
	if !f.canon {
		p.nonCanonical()
	}
	p.i = j + 1
	return nil
}

// seed installs span, n's canonical form as it stands in the input, as
// n's memo under accumulator value acc. The memo shares the input's
// memory, which the tree's strings pin already; Canonical's callers treat
// its result as immutable.
func (p *parser) seed(n *Node, acc uint64, span string) {
	m := &carve(&p.memos, 1, p.memoChunk)[0]
	m.acc, m.data = acc, unsafe.Slice(unsafe.StringData(span), len(span))
	n.memo.Store(m)
}

// procInst skips <?target ...?> at p.i. The XML declaration is checked:
// version 1.0 only, and no encoding but UTF-8.
func (p *parser) procInst() error {
	s := p.s
	target, j := p.name(p.i + 2)
	if target == "" {
		return p.errorf(p.i, "expected target name after <?")
	}
	if !isName(target) {
		return p.errorf(p.i, "invalid XML name: %s", target)
	}
	j = skipSpace(s, j)
	k := strings.Index(s[j:], "?>")
	if k < 0 {
		return p.eof()
	}
	if target == "xml" {
		body := s[j : j+k]
		if v := declParam("version", body); v != "" && v != "1.0" {
			return fmt.Errorf("xmltree: unsupported version %q; only version 1.0 is supported", v)
		}
		if enc := declParam("encoding", body); enc != "" && !strings.EqualFold(enc, "utf-8") {
			return fmt.Errorf("xmltree: unsupported encoding %q; only UTF-8 is supported", enc)
		}
	}
	p.i = j + k + 2
	return nil
}

// declParam returns the value of param="..." or param='...' in the body
// of an XML declaration, or "". The lookup is as lenient as encoding/xml's:
// the first "param=" followed by a quote wins.
func declParam(param, s string) string {
	param += "="
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := strings.Index(sub, param)
		if k < 0 || len(param)+k >= len(sub) {
			return ""
		}
		i += len(param) + k + 1
		if c := sub[len(param)+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], sep)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

// bang reads a comment, a CDATA section or a declaration at p.i ("<!").
func (p *parser) bang() error {
	s := p.s
	j := p.i + 2
	if j >= len(s) {
		return p.eof()
	}
	switch s[j] {
	case '-':
		if j+1 >= len(s) {
			return p.eof()
		}
		if s[j+1] != '-' {
			return p.errorf(j, "invalid sequence <!- not part of <!--")
		}
		j += 2
		k := strings.Index(s[j:], "--")
		if k < 0 || j+k+2 >= len(s) {
			return p.eof()
		}
		if s[j+k+2] != '>' {
			return p.errorf(j+k, `invalid sequence "--" not allowed in comments`)
		}
		p.i = j + k + 3
		return nil
	case '[':
		if !strings.HasPrefix(s[j:], "[CDATA[") {
			return p.errorf(j, "invalid <![ sequence")
		}
		j += len("[CDATA[")
		k := strings.Index(s[j:], "]]>")
		if k < 0 {
			return p.errorf(len(s), "unexpected EOF in CDATA section")
		}
		t, err := p.cdata(j, s[j:j+k])
		if err != nil {
			return err
		}
		p.i = j + k + 3
		return p.addText(t)
	}
	return p.directive(j)
}

// directive skips a declaration such as <!DOCTYPE ...> whose first body
// byte is s[j]. Like encoding/xml it balances unquoted angle brackets and
// skips embedded comments, and it takes s[j] as content unexamined.
func (p *parser) directive(j int) error {
	s := p.s
	var quote byte
	depth := 0
	j++
	for {
		if j >= len(s) {
			return p.eof()
		}
		b := s[j]
		j++
		if quote == 0 && b == '>' && depth == 0 {
			p.i = j
			return nil
		}
		// A '<' that does not open "<!--" counts as nesting, and the byte
		// that broke the match is examined in its own right: again.
		for again := true; again; {
			again = false
			switch {
			case b == quote:
				quote = 0
			case quote != 0:
			case b == '\'' || b == '"':
				quote = b
			case b == '>':
				depth--
			case b == '<':
				m := 0
				for m < 3 && j+m < len(s) && s[j+m] == "!--"[m] {
					m++
				}
				if j+m >= len(s) {
					return p.eof()
				}
				if m < 3 {
					depth++
					b, again = s[j+m], true
					j += m + 1
					continue
				}
				k := strings.Index(s[j+3:], "-->")
				if k < 0 {
					return p.eof()
				}
				j += 3 + k + 3
			}
		}
	}
}

// name returns the name starting at s[j] and the index after it: the
// longest run of ASCII name bytes and non-ASCII bytes. Whether the run is
// a valid name is checkName's question.
func (p *parser) name(j int) (string, int) {
	k := j
	for k < len(p.s) && nameByte[p.s[k]] {
		k++
	}
	return p.s[j:k], k
}

// checkName validates an element or attribute name read at offset at, and
// reports whether it carries a namespace prefix (one colon, neither first
// nor last).
func (p *parser) checkName(name string, at int, what string) (prefixed bool, err error) {
	if name == "" {
		if at >= len(p.s) {
			return false, p.eof()
		}
		return false, p.errorf(at, "expected %s", what)
	}
	if !isName(name) {
		return false, p.errorf(at, "invalid XML name: %s", name)
	}
	c := strings.IndexByte(name, ':')
	switch {
	case c < 0:
		return false, nil
	case strings.IndexByte(name[c+1:], ':') >= 0:
		return false, p.errorf(at, "expected %s", what)
	}
	return c > 0 && c < len(name)-1, nil
}

// value reads character data at p.i: content text up to the next '<' or
// EOF (quote == 0), or an attribute value up to its closing quote byte,
// which it consumes. References are decoded and CR / CRLF become LF; the
// result is a substring of the input unless something was rewritten.
// canon reports whether the input spells the value exactly as the
// canonical form escapes it.
func (p *parser) value(quote byte) (v string, canon bool, err error) {
	s, start := p.s, p.i
	plain := &plainText
	if quote != 0 {
		plain = &plainAttr
	}
	out := p.buf[:0]
	canon = quote != '\''
	// s[mark:i] is not yet copied to out; mark moves past start at the
	// first rewrite.
	mark := start
	i := start
	for {
		for i < len(s) && plain[s[i]] {
			i++
		}
		if i == len(s) {
			break
		}
		switch c := s[i]; {
		case c == quote && quote != 0:
			p.i = i + 1
			return p.finish(start, i, mark, out), canon, nil
		case c == '<':
			if quote != 0 {
				return "", false, p.errorf(i, "unescaped < inside quoted string")
			}
			p.i = i
			return p.finish(start, i, mark, out), canon, nil
		case c == ']':
			if quote == 0 && strings.HasPrefix(s[i:], "]]>") {
				return "", false, p.errorf(i, "unescaped ]]> not in CDATA section")
			}
			i++
		case c == '&':
			r, n, rerr := p.reference(i)
			if rerr != nil {
				return "", false, rerr
			}
			canon = canon && canonicalRef(s[i:i+n], quote != 0)
			out = utf8.AppendRune(append(out, s[mark:i]...), r)
			i += n
			mark = i
		case c == '\r':
			canon = false
			out = append(append(out, s[mark:i]...), '\n')
			if i++; i < len(s) && s[i] == '\n' {
				i++
			}
			mark = i
		case c == '"' || c == '\'':
			i++ // the other quote inside an attribute value
		case c == '>' || c == '\t' || c == '\n':
			// Plain XML, but the canonical form escapes '>' in text and
			// TAB and LF in attribute values; the byte tables send each
			// here only in the context that escapes it.
			canon = false
			i++
		default:
			n, cerr := p.char(i)
			if cerr != nil {
				return "", false, cerr
			}
			i += n
		}
	}
	if quote != 0 {
		return "", false, p.eof()
	}
	p.i = i
	return p.finish(start, i, mark, out), canon, nil
}

// finish returns the value read from s[start:end]: the substring itself,
// or out completed with the tail s[mark:end] when something was rewritten.
func (p *parser) finish(start, end, mark int, out []byte) string {
	if mark == start {
		return p.s[start:end]
	}
	out = append(out, p.s[mark:end]...)
	p.buf = out
	return string(out)
}

// canonicalRef reports whether ref, a reference the parser decoded, is
// the form the canonical serialization writes for its character: escapeAttr
// in an attribute value, escapeText in text.
func canonicalRef(ref string, attr bool) bool {
	switch ref {
	case "&amp;", "&lt;", "&#xD;":
		return true
	case "&gt;":
		return !attr
	case "&quot;", "&#x9;", "&#xA;":
		return attr
	}
	return false
}

// cdata checks the body of a CDATA section read at offset at and
// normalizes its line ends.
func (p *parser) cdata(at int, body string) (string, error) {
	for i := 0; i < len(body); {
		if c := body[i]; c < utf8.RuneSelf && (c >= 0x20 || c == '\t' || c == '\n' || c == '\r') {
			i++
			continue
		}
		n, err := p.char(at + i)
		if err != nil {
			return "", err
		}
		i += n
	}
	if strings.IndexByte(body, '\r') < 0 {
		return body, nil
	}
	return strings.ReplaceAll(strings.ReplaceAll(body, "\r\n", "\n"), "\r", "\n"), nil
}

// char checks the character at s[i], which is not printable ASCII, and
// returns its encoded length.
func (p *parser) char(i int) (int, error) {
	r, n := utf8.DecodeRuneInString(p.s[i:])
	if r == utf8.RuneError && n == 1 {
		return 0, p.errorf(i, "invalid UTF-8")
	}
	if !isChar(r) {
		return 0, p.errorf(i, "illegal character code %U", r)
	}
	return n, nil
}

// reference decodes the entity or character reference at s[i] == '&' and
// returns the character and the reference's length. Only the five
// predefined entities exist, and a character reference must name a
// character XML allows.
func (p *parser) reference(i int) (rune, int, error) {
	s := p.s
	j := i + 1
	if j < len(s) && s[j] == '#' {
		base := 10
		if j++; j < len(s) && s[j] == 'x' {
			base = 16
			j++
		}
		d := j
		for j < len(s) && (s[j] >= '0' && s[j] <= '9' || base == 16 && (s[j]|0x20 >= 'a' && s[j]|0x20 <= 'f')) {
			j++
		}
		if j >= len(s) {
			return 0, 0, p.eof()
		}
		if s[j] != ';' {
			return 0, 0, p.errorf(i, "invalid character entity %s (no semicolon)", s[i:j])
		}
		n, err := strconv.ParseUint(s[d:j], base, 32)
		if err != nil || !isChar(rune(n)) {
			return 0, 0, p.errorf(i, "invalid character reference %s", s[i:j+1])
		}
		return rune(n), j + 1 - i, nil
	}
	name, k := p.name(j)
	if k >= len(s) {
		return 0, 0, p.eof()
	}
	if s[k] != ';' {
		return 0, 0, p.errorf(i, "invalid character entity %s (no semicolon)", s[i:k])
	}
	var r rune
	switch name {
	case "lt":
		r = '<'
	case "gt":
		r = '>'
	case "amp":
		r = '&'
	case "apos":
		r = '\''
	case "quot":
		r = '"'
	default:
		return 0, 0, p.errorf(i, "invalid character entity %s", s[i:k+1])
	}
	return r, k + 1 - i, nil
}

func skipSpace(s string, j int) int {
	for j < len(s) && (s[j] == ' ' || s[j] == '\n' || s[j] == '\t' || s[j] == '\r') {
		j++
	}
	return j
}

// isChar reports whether r is in XML 1.0's Char production.
func isChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// isName reports whether s, a run returned by name, is an XML name: one
// nameFirst rune, then runes from nameFirst or nameRest. Every ASCII byte
// of such a run is a name character, so an ASCII name only has to start
// with something other than a digit, '-' or '.'.
func isName(s string) bool {
	if s == "" || s[0] == '-' || s[0] == '.' || s[0] >= '0' && s[0] <= '9' {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return isNameUnicode(s)
		}
	}
	return true
}

func isNameUnicode(s string) bool {
	for i, r := range s {
		switch {
		case r == utf8.RuneError && !strings.HasPrefix(s[i:], "\uFFFD"):
			return false
		case r < utf8.RuneSelf:
		case !unicode.Is(nameFirst, r) && (i == 0 || !unicode.Is(nameRest, r)):
			return false
		}
	}
	return true
}

// Byte classes. nameByte: bytes a name run may contain (ASCII name
// characters and every non-ASCII byte). plainText / plainAttr: printable
// ASCII a text or attribute value scan passes over without a second look,
// which excludes what the canonical form would escape there ('>' in text;
// TAB and LF in attribute values).
var nameByte, plainText, plainAttr [256]bool

func init() {
	for c := 0; c < 256; c++ {
		b := byte(c)
		nameByte[c] = b >= utf8.RuneSelf || b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' ||
			b >= '0' && b <= '9' || b == '_' || b == ':' || b == '.' || b == '-'
		printable := b < utf8.RuneSelf && (b >= 0x20 || b == '\t' || b == '\n')
		plainText[c] = printable && b != '<' && b != '&' && b != ']' && b != '>'
		plainAttr[c] = printable && b != '<' && b != '&' && b != '"' && b != '\'' && b != '\t' && b != '\n'
	}
}
