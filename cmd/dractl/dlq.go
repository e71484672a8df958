package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"

	"dra4wfms/internal/relay"
)

// cmdDLQ inspects and re-drives a relay outbox WAL offline: list the
// pending and dead-lettered deliveries, requeue dead letters for the
// next relay start, or drop them for good. Run it against the WAL of a
// stopped process — the outbox is single-writer.
func cmdDLQ(args []string) {
	fs := flag.NewFlagSet("dlq", flag.ExitOnError)
	wal := fs.String("wal", "", "relay outbox WAL file (required)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), `usage:
  dractl dlq -wal FILE list
  dractl dlq -wal FILE requeue SEQ|all
  dractl dlq -wal FILE drop SEQ`)
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if *wal == "" || fs.NArg() < 1 {
		fs.Usage()
		log.Fatal("need -wal FILE and a verb (list, requeue, drop)")
	}

	ob, err := relay.OpenOutbox(*wal)
	if err != nil {
		log.Fatal(err)
	}
	if rec := ob.Recovery(); rec.DamagedBytes > 0 {
		log.Printf("WARNING: outbox %s: quarantined %d damaged bytes to %s (%s); deliveries journaled there are lost", *wal, rec.DamagedBytes, rec.QuarantineFile, rec.Reason)
	}
	defer ob.Close()

	switch verb := fs.Arg(0); verb {
	case "list":
		pending, dead := ob.Counts()
		fmt.Printf("%s: %d pending, %d dead-lettered\n", *wal, pending, dead)
		if pending > 0 {
			fmt.Printf("\n%-6s %-14s %-8s %8s  %s\n", "SEQ", "kind", "attempts", "bytes", "destination")
			for _, e := range ob.Pending() {
				fmt.Printf("%-6d %-14s %-8d %8d  %s\n", e.Seq, e.Kind, e.Attempts, len(e.Payload), e.Dest)
			}
		}
		if dead > 0 {
			fmt.Printf("\ndead letters:\n%-6s %-14s %-8s  %-40s %s\n", "SEQ", "kind", "attempts", "destination", "reason")
			for _, e := range ob.DeadLetters() {
				fmt.Printf("%-6d %-14s %-8d  %-40s %s\n", e.Seq, e.Kind, e.Attempts, e.Dest, e.Reason)
			}
		}
	case "requeue":
		if fs.NArg() != 2 {
			log.Fatal("requeue needs SEQ or 'all'")
		}
		if fs.Arg(1) == "all" {
			n := 0
			for _, e := range ob.DeadLetters() {
				if err := ob.Requeue(e.Seq); err != nil {
					log.Fatal(err)
				}
				n++
			}
			fmt.Printf("requeued %d dead letters; they retry on the next relay start\n", n)
			return
		}
		seq := parseSeq(fs.Arg(1))
		if err := ob.Requeue(seq); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("requeued seq %d; it retries on the next relay start\n", seq)
	case "drop":
		if fs.NArg() != 2 {
			log.Fatal("drop needs SEQ")
		}
		seq := parseSeq(fs.Arg(1))
		if err := ob.Drop(seq); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("dropped seq %d\n", seq)
	default:
		fs.Usage()
		log.Fatalf("unknown dlq verb %q", verb)
	}
}

func parseSeq(s string) uint64 {
	seq, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		log.Fatalf("bad sequence number %q", s)
	}
	return seq
}
