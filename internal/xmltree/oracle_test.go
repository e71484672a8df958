package xmltree

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
)

// oracleParse is the encoding/xml implementation Parse replaced, kept as
// the reference the byte parser is tested against (FuzzParse,
// TestNameCharsMatchOracle) and benchmarked beside (BenchmarkParse). Its
// body is unchanged; it accepts duplicate attributes and turns a
// surrogate character reference into U+FFFD, the two inputs Parse now
// rejects.
func oracleParse(r io.Reader) (*Node, error) {
	dec := xml.NewDecoder(r)
	var root *Node
	var stack []*Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Space != "" {
				return nil, ErrNamespace
			}
			e := NewElement(t.Name.Local)
			for _, a := range t.Attr {
				if a.Name.Space != "" || a.Name.Local == "xmlns" {
					return nil, ErrNamespace
				}
				e.Attrs = append(e.Attrs, Attr{Name: a.Name.Local, Value: a.Value})
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, errors.New("xmltree: multiple root elements")
				}
				root = e
			} else {
				stack[len(stack)-1].AppendChild(e)
			}
			stack = append(stack, e)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, errors.New("xmltree: unbalanced end element")
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) == 0 {
				// Whitespace outside the root is insignificant.
				if strings.TrimSpace(string(t)) != "" {
					return nil, errors.New("xmltree: character data outside root element")
				}
				continue
			}
			parent := stack[len(stack)-1]
			// Merge adjacent character data into one text node so that
			// parse(canonical(t)) == t holds for trees without adjacent
			// text children.
			if len(parent.Children) > 0 && parent.Children[len(parent.Children)-1].IsText() {
				parent.Children[len(parent.Children)-1].Text += string(t)
			} else {
				parent.AppendChild(NewText(string(t)))
			}
		case xml.Comment, xml.ProcInst, xml.Directive:
			// Not part of the document model.
		}
	}
	if root == nil {
		return nil, errors.New("xmltree: no root element")
	}
	if len(stack) != 0 {
		return nil, errors.New("xmltree: unexpected EOF inside element")
	}
	return root, nil
}
