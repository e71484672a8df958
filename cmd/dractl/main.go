// dractl is the DRA4WfMS command-line tool: it runs demo process
// instances, writes the routed documents to disk, and inspects DRA4WfMS
// document files (structure, signatures, nonrepudiation scopes).
//
// Usage:
//
//	dractl demo    [-workflow fig9a|fig9b|fig4] [-out DIR] [-bits N]
//	dractl inspect FILE.xml
//	dractl scope   FILE.xml CER-ID
//	dractl cers    FILE.xml
//	dractl remote  [-portal URL] [-tfc URL] [-deploy DIR] [-workflow fig9a|fig9b] [-out FILE]
//	dractl trace   TRACE-ID|PROCESS-ID [-portal URL] [-tfc URL] [-json]
//	dractl metrics [-url URL] [-filter PREFIX] [-raw]
//	dractl cluster status [-url PORTAL|-data-dir DIR] [-row ROW] | rebalance -url PORTAL
//	dractl dlq     -wal FILE list|requeue SEQ|all|drop SEQ
//	dractl snapshot save -data-dir DIR -out FILE | restore -data-dir DIR -in FILE | inspect FILE
//	dractl audit   -trust trust.json FILE.xml
//	dractl dot     NAME|FILE.xml
//	dractl export-def NAME
//	dractl validate DEFINITION.xml
//	dractl lint     NAME|DEFINITION.xml ...
//
// NAME is a built-in fixture: fig9a, fig9b, fig4, leave-request, or
// expense-approval.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/document"
	"dra4wfms/internal/driver"
	"dra4wfms/internal/dsig"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/wfdef"
	"dra4wfms/internal/xmltree"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dractl: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "demo":
		cmdDemo(os.Args[2:])
	case "inspect":
		cmdInspect(os.Args[2:])
	case "scope":
		cmdScope(os.Args[2:])
	case "cers":
		cmdCERs(os.Args[2:])
	case "remote":
		cmdRemote(os.Args[2:])
	case "trace":
		cmdTrace(os.Args[2:])
	case "metrics":
		cmdMetrics(os.Args[2:])
	case "cluster":
		cmdCluster(os.Args[2:])
	case "dlq":
		cmdDLQ(os.Args[2:])
	case "snapshot":
		cmdSnapshot(os.Args[2:])
	case "audit":
		cmdAudit(os.Args[2:])
	case "dot":
		cmdDot(os.Args[2:])
	case "export-def":
		cmdExportDef(os.Args[2:])
	case "validate":
		cmdValidate(os.Args[2:])
	case "lint":
		cmdLint(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  dractl demo    [-workflow fig9a|fig9b|fig4] [-out DIR] [-bits N]
  dractl inspect FILE.xml
  dractl scope   FILE.xml CER-ID
  dractl cers    FILE.xml
  dractl remote  [-portal URL] [-tfc URL] [-deploy DIR] [-workflow fig9a|fig9b]
  dractl trace   TRACE-ID|PROCESS-ID [-portal URL] [-tfc URL] [-json]
  dractl metrics [-url URL] [-filter PREFIX] [-raw]
  dractl cluster status [-url PORTAL|-data-dir DIR] [-row ROW] | rebalance -url PORTAL
  dractl dlq     -wal FILE list|requeue SEQ|all|drop SEQ
  dractl snapshot save -data-dir DIR -out FILE | restore -data-dir DIR -in FILE | inspect FILE
  dractl audit   -trust trust.json FILE.xml
  dractl dot     NAME|FILE.xml
  dractl export-def NAME
  dractl validate DEFINITION.xml
  dractl lint     NAME|DEFINITION.xml ...

NAME is a built-in fixture: `+fixtureNames)
	os.Exit(2)
}

func cmdDemo(args []string) {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	workflow := fs.String("workflow", "fig9a", "fig9a, fig9b or fig4")
	out := fs.String("out", "", "directory to write the final document to")
	bits := fs.Int("bits", 2048, "RSA modulus size")
	fs.Parse(args)

	var inputs map[string]aea.Inputs
	switch *workflow {
	case "fig9a", "fig9b":
		inputs = map[string]aea.Inputs{
			"A":  {"request": "purchase 10 servers", "attachment": "quote.pdf"},
			"B1": {"techReview": "adequate"},
			"B2": {"budgetReview": "within budget"},
			"C":  {"summary": "both positive"},
			"D":  {"accept": "true"},
		}
	case "fig4":
		inputs = map[string]aea.Inputs{
			"A1": {"X": "1500"},
			"A2": {"Y": "dossier"},
			"A3": {"reviewed": "true"},
			"A4": {"highResult": "approved"},
			"A5": {"lowResult": "approved"},
		}
	default:
		log.Fatalf("unknown workflow %q", *workflow)
	}
	def, _ := defByName(*workflow)

	env := testenv.New(*bits)
	ids := append([]string{def.Designer}, def.TFCs()...)
	for _, a := range def.Activities {
		ids = append(ids, a.Participant)
	}
	if err := env.Register(ids...); err != nil {
		log.Fatal(err)
	}
	sys := driver.New(env)
	doc, _, err := sys.Start(def)
	if err != nil {
		log.Fatal(err)
	}
	rejected := false // D rejects once, looping back to A
	final, err := sys.Run(doc.ProcessID(), driver.Walk{Respond: func(s *aea.Session) (aea.Inputs, error) {
		if s.Activity().ID == "D" && !rejected {
			rejected = true
			return aea.Inputs{"accept": "false"}, nil
		}
		return inputs[s.Activity().ID], nil
	}})
	if err != nil {
		log.Fatal(err)
	}
	n, err := final.VerifyAll(env.Registry)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(final.Summary())
	fmt.Printf("all %d signatures verify\n", n)

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			log.Fatal(err)
		}
		path := filepath.Join(*out, final.ProcessID()+".xml")
		if err := os.WriteFile(path, final.Bytes(), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("final document written to %s (%d bytes)\n", path, final.Size())
	}
}

// defByName resolves the built-in workflow fixtures — the definitions
// shipped with the examples — by CLI name.
func defByName(name string) (*wfdef.Definition, bool) {
	switch name {
	case "fig9a":
		return wfdef.Fig9A(), true
	case "fig9b":
		return wfdef.Fig9B(), true
	case "fig4":
		return wfdef.Fig4(), true
	case "leave-request":
		return wfdef.LeaveRequest(), true
	case "expense-approval":
		return wfdef.ExpenseApproval(), true
	}
	return nil, false
}

// fixtureNames is the usage-string list of defByName's names.
const fixtureNames = "fig9a|fig9b|fig4|leave-request|expense-approval"

func loadDoc(path string) *document.Document {
	raw, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	doc, err := document.Parse(raw)
	if err != nil {
		log.Fatal(err)
	}
	return doc
}

func cmdInspect(args []string) {
	if len(args) != 1 {
		usage()
	}
	doc := loadDoc(args[0])
	fmt.Println(doc.Summary())
	def, err := doc.Definition()
	if err != nil {
		log.Fatalf("embedded definition: %v", err)
	}
	fmt.Println("\nembedded workflow definition:")
	fmt.Print(def)
	fmt.Println("\nnote: signature verification needs the principals' registry; see 'dractl demo'.")
}

func cmdCERs(args []string) {
	if len(args) != 1 {
		usage()
	}
	doc := loadDoc(args[0])
	fmt.Printf("%-16s %-14s %-5s %-16s %s\n", "CER", "activity#iter", "kind", "signer", "signed references")
	for _, c := range doc.CERs() {
		refs := "-"
		if sig := c.Signature(); sig != nil {
			refs = strings.Join(dsig.References(sig), " ")
		}
		fmt.Printf("%-16s %-14s %-5s %-16s %s\n",
			c.ID(), fmt.Sprintf("%s#%d", c.ActivityID(), c.Iteration()),
			c.Kind()[:4], c.Signer(), refs)
	}
}

func cmdScope(args []string) {
	if len(args) != 2 {
		usage()
	}
	doc := loadDoc(args[0])
	scope, err := doc.NonrepudiationScope(args[1])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("nonrepudiation scope of %s (%d CERs):\n", args[1], len(scope))
	for _, id := range scope {
		fmt.Println("  " + id)
	}
}

// cmdDot prints the Graphviz rendering of a fixture workflow or of the
// definition embedded in a document file.
func cmdDot(args []string) {
	if len(args) != 1 {
		usage()
	}
	if def, ok := defByName(args[0]); ok {
		fmt.Print(def.DOT())
		return
	}
	doc := loadDoc(args[0])
	def, err := doc.Definition()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(def.DOT())
}

// cmdExportDef writes a fixture workflow definition as XML (for editing
// and re-validation with `dractl validate`).
func cmdExportDef(args []string) {
	if len(args) != 1 {
		usage()
	}
	def, ok := defByName(args[0])
	if !ok {
		log.Fatalf("unknown fixture %q (%s)", args[0], fixtureNames)
	}
	fmt.Println(def.ToXML().Indent())
}

// cmdValidate parses and validates a WorkflowDefinition XML file.
func cmdValidate(args []string) {
	if len(args) != 1 {
		usage()
	}
	raw, err := os.ReadFile(args[0])
	if err != nil {
		log.Fatal(err)
	}
	el, err := xmltree.ParseBytes(raw)
	if err != nil {
		log.Fatal(err)
	}
	def, err := wfdef.FromXML(el)
	if err != nil {
		log.Fatal(err)
	}
	if err := def.Validate(); err != nil {
		log.Fatalf("INVALID: %v", err)
	}
	fmt.Printf("VALID: %s\n", def.Summary())
}
