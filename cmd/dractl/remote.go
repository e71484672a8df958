package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/document"
	"dra4wfms/internal/httpapi"
	"dra4wfms/internal/pki"
	"dra4wfms/internal/trace"
	"dra4wfms/internal/wfdef"
	"dra4wfms/internal/xmlenc"
)

// cmdRemote drives one Figure 9 process instance against REAL portal and
// TFC servers over HTTP (see cmd/draportal and cmd/dratfc), loading the
// participants' private keys from a drakeys deployment directory. This is
// the full multi-process cloud flow: designer → portal → participants'
// AEAs → (TFC) → portal, authenticated end to end.
func cmdRemote(args []string) {
	fs := flag.NewFlagSet("remote", flag.ExitOnError)
	portalURL := fs.String("portal", "http://localhost:8080", "portal base URL")
	tfcURL := fs.String("tfc", "http://localhost:8081", "TFC base URL (advanced model)")
	deploy := fs.String("deploy", "deploy", "drakeys deployment directory")
	workflow := fs.String("workflow", "fig9a", "fig9a or fig9b")
	out := fs.String("out", "", "write the final document to this file")
	fs.Parse(args)

	var def *wfdef.Definition
	switch *workflow {
	case "fig9a":
		def = wfdef.Fig9A()
	case "fig9b":
		def = wfdef.Fig9B()
	default:
		log.Fatalf("remote supports fig9a/fig9b, not %q", *workflow)
	}

	loadKey := func(id string) *pki.KeyPair {
		data, err := os.ReadFile(filepath.Join(*deploy, "keys", sanitize(id)+".pem"))
		if err != nil {
			log.Fatalf("loading key for %s: %v", id, err)
		}
		kp, err := pki.DecodePrivateKeyPEM(data)
		if err != nil {
			log.Fatal(err)
		}
		return kp
	}
	trustData, err := os.ReadFile(filepath.Join(*deploy, "trust.json"))
	if err != nil {
		log.Fatal(err)
	}
	bundle, err := pki.ParseBundle(trustData)
	if err != nil {
		log.Fatal(err)
	}
	registry, err := bundle.BuildRegistry(time.Now())
	if err != nil {
		log.Fatal(err)
	}

	designerKeys := loadKey("designer@acme")
	var doc *document.Document
	if def.Policy.ConcealFlow {
		tfcPub, err := registry.PublicKey(def.Policy.TFC)
		if err != nil {
			log.Fatal(err)
		}
		doc, err = document.NewConcealed(def, designerKeys, fmt.Sprintf("proc-remote-%d", time.Now().UnixNano()),
			time.Now(), xmlenc.Recipient{ID: def.Policy.TFC, Key: tfcPub})
		if err != nil {
			log.Fatal(err)
		}
	} else {
		doc, err = document.New(def, designerKeys, fmt.Sprintf("proc-remote-%d", time.Now().UnixNano()), time.Now())
		if err != nil {
			log.Fatal(err)
		}
	}
	pid := doc.ProcessID()

	// The drive is the trace root: every HTTP hop below carries its
	// traceparent, so the whole cascade lands under one trace ID that
	// `dractl trace` can assemble afterwards.
	ctx, rootSpan := trace.Default().StartRoot(context.Background(), "client_remote_drive_seconds", nil)
	rootSpan.SetAttr("workflow", *workflow)
	defer rootSpan.End()
	traceID := rootSpan.Context().TraceID.String()

	designerClient := httpapi.NewClient(*portalURL, designerKeys)
	notes, err := designerClient.StoreInitialCtx(ctx, doc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("started %s (trace %s); notified %v\n", pid, traceID, notes)

	inputs := map[string]aea.Inputs{
		"A":  {"request": "purchase 10 servers", "attachment": "quote.pdf"},
		"B1": {"techReview": "adequate"},
		"B2": {"budgetReview": "within budget"},
		"C":  {"summary": "both positive"},
		"D":  {"accept": "true"},
	}
	order := []string{"A", "B1", "B2", "C", "D"}
	for _, act := range order {
		participant := wfdef.Fig9Participants[act]
		keys := loadKey(participant)
		cli := httpapi.NewClient(*portalURL, keys)

		items, err := cli.Worklist()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%s] %s worklist: %d item(s)\n", act, participant, len(items))

		cur, err := cli.RetrieveCtx(ctx, pid)
		if err != nil {
			log.Fatal(err)
		}
		agent := aea.New(keys, registry)
		if def.Policy.TFC != "" {
			interm, err := agent.ExecuteToTFC(cur, act, inputs[act])
			if err != nil {
				log.Fatal(err)
			}
			tfcClient := httpapi.NewClient(*tfcURL, keys)
			pr, outDoc, err := tfcClient.ProcessViaTFCCtx(ctx, interm)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("[%s] TFC stamped %s, routed to %v\n", act, pr.Timestamp.Format(time.RFC3339), pr.Next)
			if _, err := cli.StoreCtx(ctx, outDoc); err != nil {
				log.Fatal(err)
			}
		} else {
			out, err := agent.Execute(cur, act, inputs[act], time.Now())
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("[%s] routed to %v\n", act, out.Next)
			if _, err := cli.StoreCtx(ctx, out.Doc); err != nil {
				log.Fatal(err)
			}
		}
	}

	st, err := designerClient.Status(pid)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final state: %s with %d steps\n", st.State, len(st.Steps))
	final, err := designerClient.Retrieve(pid)
	if err != nil {
		log.Fatal(err)
	}
	n, err := final.VerifyAll(registry)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retrieved final document: %d bytes, %d signatures verify\n", final.Size(), n)
	fmt.Printf("inspect the cascade: dractl trace %s -portal %s -tfc %s\n", traceID, *portalURL, *tfcURL)
	if *out != "" {
		if err := os.WriteFile(*out, final.Bytes(), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("final document written to %s\n", *out)
	}
}

// sanitize mirrors drakeys' key-file naming.
func sanitize(id string) string {
	out := []rune(id)
	for i, r := range out {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '.', r == '@', r == '_':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}
