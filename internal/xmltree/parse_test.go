package xmltree

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// fig9aFixture is the canonical bytes of a Figure 9A instance in which D
// rejected seven times (39 CERs, about 145 KB): the document the
// deep-cascade workload routes.
const fig9aFixture = "testdata/fig9a-7reject.xml"

func readFixture(tb testing.TB) []byte {
	tb.Helper()
	b, err := os.ReadFile(fig9aFixture)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// parseSeeds are edge cases of the accepted syntax; FuzzParse starts from
// them and plain `go test` replays them.
var parseSeeds = []string{
	// The two tightenings.
	`<a x="1" x="2"/>`, `<a x="1" y="2" x="3"></a>`,
	`<a>&#xD800;</a>`, `<a x="&#57343;"/>`, `<a>&#xDBFF;&#xDC00;</a>`,
	// Markup that must not appear where it does.
	`<a>]]></a>`, `<a x="]]>"/>`, `<a>]]&gt;</a>`, `<a>]]</a>`,
	`<a><!-- a -- b --></a>`, `<a><!----></a>`, `<a><!---></a>`, `<a><!-x--></a>`,
	`<a x="<"/>`, `<a x='"'/>`, `<a x="'"/>`, `<a x=1/>`, `<a x/>`, `<a x =  "1" />`,
	`<a x="1"y="2"/>`, `<a/ >`, `<a></b>`, `<a></a ><b/>`, `<a>x</a>y`, `x<a/>`,
	" \t\r\n<a/>\n", `&#xA0;<a/>`, `&#x20;<a/>&#32;`, "\xef\xbb\xbf<a/>",
	// Namespaces and colons.
	`<p:a/>`, `<a p:x="1"/>`, `<a xmlns="u"/>`, `<a xmlns:p="u"/>`, `<a xmlns=""/>`,
	`<:a/>`, `<a:/>`, `<:/>`, `<a:b:c/>`, `<xmlns/>`, `<a xmlns:="1"/>`, `<:a></:a>`,
	`<a><b:c/></a>`, `<a></p:a>`,
	// Declarations.
	`<?xml version="1.0" encoding="ISO-8859-1"?><a/>`, `<?xml version="1.1"?><a/>`,
	`<?xml version='1.0' encoding='utf-8'?><a/>`, `<?xml encoding="UTF-16"?><a/>`,
	`<?xml version="1.0" encoding="Utf-8" standalone="yes"?><a/>`, `<a><?xml version="2"?></a>`,
	`<?xml-stylesheet href="x"?><a/>`, `<?xml encoding=utf-16 encoding="utf-8"?><a/>`,
	// Line ends and merging.
	"<a>x\r\ny\rz\r</a>", "<a x=\"1\r\n2\r\"/>", "<a><![CDATA[\r\n\r]]></a>",
	"<a>\r<!---->\n</a>", "<a>&#xD;\n</a>", "<a>x\r&amp;\n</a>",
	`<a>one<![CDATA[two]]>three</a>`, `<a><![CDATA[]]></a>`, `<a>x<![CDATA[]]></a>`,
	`<a>x<!--c-->y<?p q?>z<b/>w</a>`, `<a><![CDATA[<&]]]]></a>`, `<a><![CDATA[x</a>`,
	`<a><![CDAT[x]]></a>`, `<a><![cdata[x]]></a>`,
	// References.
	`<a>&lt;&gt;&amp;&apos;&quot;</a>`, `<a>&#65;&#x41;&#x0041;</a>`, `<a>&#X41;</a>`,
	`<a>&#;</a>`, `<a>&#x;</a>`, `<a>&bogus;</a>`, `<a>&amp</a>`, `<a>&</a>`, `<a>&;</a>`,
	`<a>&#0;</a>`, `<a>&#x10FFFF;</a>`, `<a>&#x110000;</a>`, `<a>&#xFFFE;</a>`,
	`<a>&#x9;&#xA;&#x1;</a>`, `<a>&#99999999999999999999;</a>`, `<a>&lt</a>`, `<a>&é;</a>`,
	// Characters and names.
	"<a>\xff</a>", "<a\xc3>", "<a>\xed\xa0\x80</a>", "<a>\x01</a>", "<a>\x00</a>",
	"<a x=\"\x00\"/>", "<a>\x7f\u00e9\U0001F600\ufffd</a>", "<a>\uffff</a>",
	`<1a/>`, `<-a/>`, `<.a/>`, `<a.b-c_d9/>`, `<é/>`, `<a·/>`, `<·a/>`, "<a\u00a0/>", "<\ufffd/>",
	// Declarations and other <! forms.
	`<!DOCTYPE a [<!ENTITY x "y">]><a/>`, `<!>`, `<!><a/>`, `<!>>`, `<!x<!-- > -->><a/>`,
	`<a><!x></a>`, `<!"><a/>`, `<!x'>'><a/>`, `<!x<y>><a/>`, `<!x<!y>><a/>`, `<!x<!-y>><a/>`,
	`<!-`, `<!`, `<![`, `<!x<!--`,
	// Processing instructions.
	`<?>`, `<??>`, `<?x?><a/>`, `<?x ?><a/>`, `<?xml?><a/>`, `<?1?><a/>`, `<?x`, `<?x?`,
	`<a><?x?></a>`, `<?x??><a/>`,
	// Truncations and structure.
	``, ` `, `<`, `<>`, `</>`, `<a`, `<a b=>`, `<a 'b'>`, `<a><a><a>`, `<a b="1`,
	`<a/><b/>`, `</a>`, `<a/></a>`, `<a/><!-- trailing --><?pi?>`, `<a>`, `<a/`, `</a`,
	`<a><b>t</b><c x="1"/>u</a>`, `< a/>`, `<a\n/>`, "<a\n\tx\r=\n'1'\n/>",
}

// tightened reports whether a rejection by Parse of input the oracle
// accepted is one of the two deliberate differences: a repeated attribute
// name, or a character reference to a surrogate.
func tightened(oracle *Node, in []byte, err error) bool {
	switch msg := err.Error(); {
	case strings.Contains(msg, "redefined"):
		dup := false
		oracle.Walk(func(e *Node) bool {
			seen := map[string]bool{}
			for _, a := range e.Attrs {
				dup = dup || seen[a.Name]
				seen[a.Name] = true
			}
			return !dup
		})
		return dup
	case strings.Contains(msg, "character reference"):
		return hasSurrogateRef(in)
	}
	return false
}

var charRef = regexp.MustCompile(`&#(x[0-9a-fA-F]+|[0-9]+);`)

func hasSurrogateRef(in []byte) bool {
	for _, m := range charRef.FindAllSubmatch(in, -1) {
		digits, base := string(m[1]), 10
		if digits[0] == 'x' {
			digits, base = digits[1:], 16
		}
		if n, err := strconv.ParseUint(digits, base, 32); err == nil && n >= 0xD800 && n <= 0xDFFF {
			return true
		}
	}
	return false
}

// FuzzParse checks Parse three ways. Differentially: it accepts exactly
// what the encoding/xml oracle accepts, up to the two tightenings, and
// builds an Equal tree. By the seeded memos: every element's Canonical,
// served from its input span where Parse found that canonical, equals
// the fresh serialization of a clone. And by round trip: the canonical
// form of an accepted tree reparses to an Equal tree (normalized first,
// since an empty CDATA section leaves an empty text node that canonical
// bytes cannot carry) with the same canonical bytes.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add([]byte(s))
	}
	f.Add(readFixture(f))
	f.Fuzz(func(t *testing.T, in []byte) {
		got, err := ParseBytes(in)
		want, werr := oracleParse(bytes.NewReader(in))
		switch {
		case err != nil && werr != nil:
			return
		case err == nil && werr != nil:
			t.Fatalf("Parse accepts what the oracle rejects (%v): %q", werr, in)
		case err != nil:
			if !tightened(want, in, err) {
				t.Fatalf("Parse rejects what the oracle accepts (%v): %q", err, in)
			}
			return
		}
		if !Equal(got, want) {
			t.Fatalf("trees differ for %q:\nParse  %s\noracle %s", in, got, want)
		}
		got.Walk(func(e *Node) bool {
			if c, fresh := e.Canonical(), e.Clone().Canonical(); !bytes.Equal(c, fresh) {
				t.Fatalf("<%s> of %q: Canonical %q, fresh serialization %q", e.Name, in, c, fresh)
			}
			return true
		})
		canon := got.Canonical()
		back, err := ParseBytes(canon)
		if err != nil {
			t.Fatalf("canonical form of %q does not reparse: %v\n%s", in, err, canon)
		}
		norm := got.Clone()
		norm.Normalize()
		if !Equal(back, norm) {
			t.Fatalf("round trip of %q changed the tree:\n%s\n%s", in, canon, back)
		}
		if again := back.Canonical(); !bytes.Equal(again, canon) {
			t.Fatalf("round trip of %q changed the canonical bytes:\n%s\n%s", in, canon, again)
		}
	})
}

func TestParseRejectsDuplicateAttributes(t *testing.T) {
	many := make([]string, 20)
	for i := range many {
		many[i] = fmt.Sprintf(`k%d="v"`, i)
	}
	for _, in := range []string{
		`<a x="1" x="2"/>`,
		`<a x="1"><b y="1" z="2" y="1"></b></a>`,
		`<a ` + strings.Join(many, " ") + ` k7="again"/>`, // past the pairwise scan
	} {
		if _, err := ParseString(in); err == nil || !strings.Contains(err.Error(), "redefined") {
			t.Errorf("ParseString(%.40q) = %v, want a redefined-attribute error", in, err)
		}
	}
	if _, err := ParseString(`<a ` + strings.Join(many, " ") + `/>`); err != nil {
		t.Fatalf("20 distinct attributes: %v", err)
	}
}

func TestParseRejectsSurrogateReference(t *testing.T) {
	for _, in := range []string{`<a>&#xD800;</a>`, `<a>&#xdfff;</a>`, `<a x="&#55296;"/>`} {
		if _, err := ParseString(in); err == nil {
			t.Errorf("ParseString(%q) accepted a surrogate character reference", in)
		}
	}
	root, err := ParseString(`<a>&#xD7FF;&#xE000;&#x10000;</a>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := root.TextContent(); got != "\uD7FF\uE000\U00010000" {
		t.Fatalf("text = %q", got)
	}
}

// TestCanonicalOrdersEqualNamesStably: a tree built by hand may repeat an
// attribute name (Parse refuses to); its canonical form keeps insertion
// order among equal names, so it is one defined byte string.
func TestCanonicalOrdersEqualNamesStably(t *testing.T) {
	e := NewElement("a")
	var want strings.Builder
	want.WriteString("<a")
	for i := 19; i >= 0; i-- {
		e.Attrs = append(e.Attrs, Attr{Name: fmt.Sprintf("k%02d", i%10), Value: strconv.Itoa(i)})
	}
	for k := 0; k < 10; k++ {
		fmt.Fprintf(&want, ` k%02d="%d" k%02d="%d"`, k, k+10, k, k)
	}
	want.WriteString("></a>")
	if got := string(e.Canonical()); got != want.String() {
		t.Fatalf("canonical = %s\nwant        %s", got, want.String())
	}
}

// TestNameCharsMatchOracle compares Parse's name check with the oracle's
// over every BMP character, as the first and as a later character of an
// element name.
func TestNameCharsMatchOracle(t *testing.T) {
	for r := rune(0x80); r <= 0xFFFF; r++ {
		if !utf8.ValidRune(r) {
			continue
		}
		for _, in := range []string{"<" + string(r) + "/>", "<a" + string(r) + "/>"} {
			_, err := ParseString(in)
			_, oerr := oracleParse(strings.NewReader(in))
			if a, b := err == nil, oerr == nil; a != b {
				t.Fatalf("%U in %q: Parse accepts = %v, oracle accepts = %v", r, in, a, b)
			}
		}
	}
}

// TestFixtureCanonicalIsIdentity: the committed Figure 9A document is
// canonical bytes, so both parsers must give them back unchanged.
func TestFixtureCanonicalIsIdentity(t *testing.T) {
	raw := readFixture(t)
	root, err := ParseBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(root.Canonical(), raw) {
		t.Fatal("Parse → Canonical changed the fixture's bytes")
	}
	ref, err := oracleParse(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(root, ref) {
		t.Fatal("Parse and the oracle disagree on the fixture")
	}
}

// TestParseAllocsBounded pins the slab design: a 145 KB document with
// thousands of nodes costs a handful of allocations, not one per token.
func TestParseAllocsBounded(t *testing.T) {
	raw := readFixture(t)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ParseBytes(raw); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Fatalf("ParseBytes(fixture) = %.0f allocs/op, want <= 64", allocs)
	}
}

// TestParseSlicesAreClipped: appending to a parsed node's attribute or
// child list must not write into its neighbour's, which shares the slab.
func TestParseSlicesAreClipped(t *testing.T) {
	root, err := ParseString(`<r><a x="1"></a><b y="2"></b><c>t</c><d></d></r>`)
	if err != nil {
		t.Fatal(err)
	}
	a, b := root.Child("a"), root.Child("b")
	a.SetAttr("z", "3")
	root.Child("c").AppendChild(NewElement("e"))
	if got := string(b.Canonical()); got != `<b y="2"></b>` {
		t.Fatalf("b = %s after SetAttr on a", got)
	}
	if got := string(root.Canonical()); got != `<r><a x="1" z="3"></a><b y="2"></b><c>t<e></e></c><d></d></r>` {
		t.Fatalf("root = %s", got)
	}
}

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("boom") }

func TestParseReaderError(t *testing.T) {
	if _, err := Parse(failingReader{}); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Parse(failing reader) = %v", err)
	}
	root, err := Parse(strings.NewReader(`<a>x</a>`))
	if err != nil || root.TextContent() != "x" {
		t.Fatalf("Parse(reader) = %v, %v", root, err)
	}
}

// BenchmarkParse parses the Figure 9A fixture with the encoding/xml oracle
// and with Parse; compare MB/s and allocs/op between the two.
func BenchmarkParse(b *testing.B) {
	raw := readFixture(b)
	for _, c := range []struct {
		name  string
		parse func([]byte) (*Node, error)
	}{
		{"encoding-xml", func(in []byte) (*Node, error) { return oracleParse(bytes.NewReader(in)) }},
		{"bytes", ParseBytes},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.parse(raw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
