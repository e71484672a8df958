package xmltree

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

// buildMemoTree returns a small document with a nested element, suitable
// for exercising every mutator at both the root and a descendant.
func buildMemoTree() (root, inner *Node) {
	root = NewElement("Doc")
	root.SetAttr("Id", "d1")
	mid := root.Elem("Mid", "")
	mid.SetAttr("Id", "m1")
	inner = mid.Elem("Inner", "payload")
	inner.SetAttr("Id", "i1")
	root.Elem("Tail", "tail text")
	return root, inner
}

// freshCanonical serializes a clone of n, bypassing any memo cached on n
// itself — the ground truth a memoized Canonical must match.
func freshCanonical(n *Node) []byte {
	return n.Clone().Canonical()
}

// TestMutatorsInvalidateMemo drives every mutating method through the same
// scenario: canonicalize (priming the memo at the root AND at a
// descendant), mutate somewhere inside the subtree, and require Canonical
// to both change and agree with a from-scratch serialization of the
// mutated tree.
func TestMutatorsInvalidateMemo(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(root, inner *Node)
	}{
		{"SetAttr_new", func(root, inner *Node) { inner.SetAttr("Extra", "v") }},
		{"SetAttr_overwrite", func(root, inner *Node) { inner.SetAttr("Id", "i2") }},
		{"RemoveAttr", func(root, inner *Node) { inner.RemoveAttr("Id") }},
		{"AppendChild", func(root, inner *Node) { inner.AppendChild(NewElement("Added")) }},
		{"InsertChild", func(root, inner *Node) { inner.InsertChild(0, NewElement("First")) }},
		{"RemoveChild", func(root, inner *Node) { inner.RemoveChild(inner.Children[0]) }},
		{"ReplaceChild", func(root, inner *Node) {
			inner.ReplaceChild(inner.Children[0], NewText("replaced"))
		}},
		{"SetText", func(root, inner *Node) { inner.SetText("rewritten") }},
		{"Elem", func(root, inner *Node) { inner.Elem("Child", "txt") }},
		{"Normalize_merges_text", func(root, inner *Node) {
			// Adjacent text nodes canonicalize identically before and after
			// merging, so give Normalize an empty text node to drop — that
			// changes the accumulator but must keep canonical bytes valid.
			inner.AppendChild(NewText("a"))
			inner.AppendChild(NewText(""))
			inner.AppendChild(NewText("b"))
			root.Normalize()
		}},
		{"Invalidate_after_direct_edit", func(root, inner *Node) {
			inner.Children[0].Text = "directly edited"
			inner.Children[0].Invalidate()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root, inner := buildMemoTree()
			before := append([]byte(nil), root.Canonical()...)
			_ = inner.Canonical() // prime a descendant memo too
			tc.mutate(root, inner)
			got := root.Canonical()
			want := freshCanonical(root)
			if !bytes.Equal(got, want) {
				t.Fatalf("memoized canonical diverged from fresh serialization after %s:\n got  %s\n want %s",
					tc.name, got, want)
			}
			if tc.name != "Normalize_merges_text" && bytes.Equal(got, before) {
				t.Fatalf("canonical bytes unchanged after %s — stale memo served", tc.name)
			}
			// A second call must also be correct (and may now hit the memo).
			if again := root.Canonical(); !bytes.Equal(again, want) {
				t.Fatalf("second Canonical after %s returned stale bytes", tc.name)
			}
		})
	}
}

// TestMemoReturnsStableBytes checks the basic memo contract: repeated calls
// on an unchanged tree return identical bytes, and priming a child memo
// then mutating a sibling still yields correct parent bytes (the valid
// child memo is spliced into the rebuild).
func TestMemoReturnsStableBytes(t *testing.T) {
	root, inner := buildMemoTree()
	first := root.Canonical()
	second := root.Canonical()
	if !bytes.Equal(first, second) {
		t.Fatal("Canonical not stable across calls on an unchanged tree")
	}
	_ = inner.Canonical()
	root.SetAttr("Version", "2") // invalidates root memo, not inner's
	if got, want := root.Canonical(), freshCanonical(root); !bytes.Equal(got, want) {
		t.Fatalf("rebuild with child splice diverged:\n got  %s\n want %s", got, want)
	}
}

// TestCloneDropsMemo ensures a clone never serves bytes cached on its
// original: direct field surgery on a fresh clone (the idiom of the tamper
// tests across the repo) must be reflected in its canonical form.
func TestCloneDropsMemo(t *testing.T) {
	root, _ := buildMemoTree()
	orig := root.Canonical()
	clone := root.Clone()
	clone.Find("Inner").Children[0].Text = "tampered"
	got := clone.Canonical()
	if bytes.Equal(got, orig) {
		t.Fatal("clone served the original's memoized bytes after direct mutation")
	}
	if !bytes.Contains(got, []byte("tampered")) {
		t.Fatal("clone canonical does not reflect the direct mutation")
	}
}

// BenchmarkCanonical measures serialization of a ~100-element document
// with the memo warm (steady state of repeated digesting), invalidated at
// the root each iteration (worst-case rebuild, child memos still spliced),
// and on a cold clone (no memos anywhere).
func BenchmarkCanonical(b *testing.B) {
	root := NewElement("Doc")
	for i := 0; i < 100; i++ {
		e := root.Elem("Entry", strings.Repeat("x", 64))
		e.SetAttr("Id", fmt.Sprintf("id-%d", i))
		e.SetAttr("Kind", "payload")
	}
	b.Run("memo-hit", func(b *testing.B) {
		b.ReportAllocs()
		_ = root.Canonical()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = root.Canonical()
		}
	})
	b.Run("root-invalidated", func(b *testing.B) {
		for _, c := range root.Children {
			_ = c.Canonical() // prime child memos
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			root.Invalidate()
			_ = root.Canonical()
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = root.Clone().Canonical()
		}
	})
}

// TestConcurrentCanonical hammers Canonical from many goroutines on a
// shared tree (run with -race): concurrent readers are part of the
// contract — parallel signature verification digests subtrees of one
// document from a worker pool.
func TestConcurrentCanonical(t *testing.T) {
	root := NewElement("Doc")
	for i := 0; i < 40; i++ {
		c := root.Elem("Item", fmt.Sprintf("value-%d", i))
		c.SetAttr("Id", fmt.Sprintf("id-%d", i))
	}
	want := freshCanonical(root)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				// Mix whole-tree and subtree canonicalization.
				if got := root.Canonical(); !bytes.Equal(got, want) {
					errs <- fmt.Errorf("goroutine %d: canonical bytes diverged", g)
					return
				}
				sub := root.Children[(g+i)%len(root.Children)]
				if len(sub.Canonical()) == 0 {
					errs <- fmt.Errorf("goroutine %d: empty subtree canonical", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestParseSeedsCanonicalSpans: Parse seeds an element's memo with its
// input span exactly when that span is the element's canonical form and
// the element is one seedable names. The non-canonical spellings
// below are each one the canonical form writes differently; the named
// elements must be left unseeded and the others seeded as the rule says,
// and every element's Canonical must equal a fresh serialization.
func TestParseSeedsCanonicalSpans(t *testing.T) {
	cases := []struct {
		name, in string
		unseeded []string // element names whose span is not canonical
	}{
		{"canonical", `<r><a Id="i" x="1">t</a><b></b></r>`, nil},
		{"canonical escapes", "<r Id=\"&amp;&lt;&quot;&#x9;&#xA;&#xD;'>\">&amp;&lt;&gt;&#xD;\"'\t\n</r>", nil},
		{"utf8", "<r Id=\"\u00e9\" é=\"\u00e9\">\U0001F600\ufffd</r>", nil},
		{"xml declaration outside root", "<?xml version=\"1.0\"?>\n<r><a Id=\"i\"></a></r>\n", nil},
		{"attribute order", `<r><a x="1" Id="i"></a><b></b></r>`, []string{"r", "a"}},
		{"single quotes", `<r><a Id='i'></a></r>`, []string{"r", "a"}},
		{"self-closing", `<r><a Id="i"/><b Id="j"></b></r>`, []string{"r", "a"}},
		{"space before >", `<r><a Id="i" ></a></r>`, []string{"r", "a"}},
		{"two spaces", `<r><a  Id="i"></a></r>`, []string{"r", "a"}},
		{"newline before attribute", "<r><a\nId=\"i\"></a></r>", []string{"r", "a"}},
		{"space around =", `<r><a Id = "i"></a></r>`, []string{"r", "a"}},
		{"space in end tag", `<r><a Id="i"></a ></r>`, []string{"r", "a"}},
		{"no space between attributes", `<r><a Id="i"x="1"></a></r>`, []string{"r", "a"}},
		{"apos entity", `<r><a Id="i">&apos;</a></r>`, []string{"r", "a"}},
		{"quot entity in text", `<r><a Id="i">&quot;</a></r>`, []string{"r", "a"}},
		{"gt entity in attribute", `<r><a Id="&gt;"></a></r>`, []string{"r", "a"}},
		{"decimal reference", `<r><a Id="i">&#65;</a></r>`, []string{"r", "a"}},
		{"lowercase hex reference", `<r><a Id="i">&#xd;</a></r>`, []string{"r", "a"}},
		{"tab reference in text", `<r><a Id="i">&#x9;</a></r>`, []string{"r", "a"}},
		{"literal > in text", `<r><a Id="i">x>y</a></r>`, []string{"r", "a"}},
		{"literal tab in attribute", "<r><a Id=\"1\t2\"></a></r>", []string{"r", "a"}},
		{"literal LF in attribute", "<r><a Id=\"1\n2\"></a></r>", []string{"r", "a"}},
		{"CRLF", "<r><a Id=\"i\">x\r\ny</a></r>", []string{"r", "a"}},
		{"CR in attribute", "<r><a Id=\"1\r2\"></a></r>", []string{"r", "a"}},
		{"comment", `<r><a Id="i">x<!--c-->y</a><b Id="j"></b></r>`, []string{"r", "a"}},
		{"processing instruction", `<r><a Id="i"><?p q?></a></r>`, []string{"r", "a"}},
		{"CDATA", `<r><a Id="i"><![CDATA[<x>]]></a></r>`, []string{"r", "a"}},
		{"declaration", `<r><a Id="i"><!x></a></r>`, []string{"r", "a"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root, err := ParseString(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			seeds := seedable(root)
			root.Walk(func(e *Node) bool {
				want := !slices.Contains(tc.unseeded, e.Name) && seeds[e]
				if got := e.memo.Load() != nil; got != want {
					t.Errorf("<%s> seeded = %v, want %v", e.Name, got, want)
				}
				if c, fresh := e.Canonical(), freshCanonical(e); !bytes.Equal(c, fresh) {
					t.Errorf("<%s>: Canonical %q, fresh serialization %q", e.Name, c, fresh)
				}
				return true
			})
		})
	}
}

// seedable returns the elements under root that Parse seeds when their
// spans are canonical: those carrying an Id, the non-leaf children of
// those, and the ancestors of any of them.
func seedable(root *Node) map[*Node]bool {
	set := map[*Node]bool{}
	var visit func(e *Node, parentID bool) bool
	visit = func(e *Node, parentID bool) bool {
		kids := e.ChildElements()
		seeded := e.hasID() || len(kids) > 0 && parentID
		for _, c := range kids {
			if visit(c, e.hasID()) {
				seeded = true
			}
		}
		set[e] = seeded
		return seeded
	}
	visit(root, false)
	return set
}

// TestSeededMemoInvalidatedByMutation: a seeded memo is an ordinary memo,
// so every mutation after the parse — through a method, or a same-length
// direct field write followed by Invalidate — makes the enclosing
// elements serialize afresh.
func TestSeededMemoInvalidatedByMutation(t *testing.T) {
	const in = `<r><a Id="i" x="1">t</a><b></b></r>`
	cases := []struct {
		name   string
		mutate func(r *Node)
		want   string
	}{
		{"SetAttr", func(r *Node) { r.Child("a").SetAttr("x", "2") }, `<r><a Id="i" x="2">t</a><b></b></r>`},
		{"AppendChild", func(r *Node) { r.Child("b").AppendChild(NewElement("c")) }, `<r><a Id="i" x="1">t</a><b><c></c></b></r>`},
		{"SetText", func(r *Node) { r.Child("a").SetText("u") }, `<r><a Id="i" x="1">u</a><b></b></r>`},
		{"direct write and Invalidate", func(r *Node) {
			a := r.Child("a")
			a.Attrs[1].Value = "9"
			a.Invalidate()
		}, `<r><a Id="i" x="9">t</a><b></b></r>`},
		{"direct text write and Invalidate", func(r *Node) {
			txt := r.Child("a").Children[0]
			txt.Text = "u"
			txt.Invalidate()
		}, `<r><a Id="i" x="1">u</a><b></b></r>`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := ParseString(in)
			if err != nil {
				t.Fatal(err)
			}
			if r.memo.Load() == nil || r.Child("a").memo.Load() == nil {
				t.Fatal("canonical input left <r> or <a> unseeded")
			}
			tc.mutate(r)
			if got := string(r.Canonical()); got != tc.want {
				t.Fatalf("Canonical after %s = %s, want %s", tc.name, got, tc.want)
			}
			if got := string(freshCanonical(r)); got != tc.want {
				t.Fatalf("fresh serialization after %s = %s, want %s", tc.name, got, tc.want)
			}
		})
	}
}

// TestParsedFixtureCanonicalHitsMemo: every seedable element of the
// canonical Figure 9A fixture is seeded, so canonicalizing all of them
// after the parse misses no memo.
func TestParsedFixtureCanonicalHitsMemo(t *testing.T) {
	root, err := ParseBytes(readFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	seeds := seedable(root)
	misses := mMemoMisses.Value()
	root.Walk(func(e *Node) bool {
		if seeds[e] {
			_ = e.Canonical()
		}
		return true
	})
	if d := mMemoMisses.Value() - misses; d != 0 {
		t.Fatalf("canonicalizing the parsed fixture missed %d memos, want 0", d)
	}
}
