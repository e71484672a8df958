package main

import (
	"bytes"
	"strings"
	"testing"
)

// An unknown or retired experiment name must be refused before anything
// runs: exit 2, nothing on stdout, one stderr line naming the valid
// experiments.
func TestUnknownExperimentRefused(t *testing.T) {
	for _, name := range []string{"bogus", "chaos", "faults", "pool"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-experiment", name}, &stdout, &stderr); code != 2 {
			t.Fatalf("-experiment %s: exit %d, want 2", name, code)
		}
		if stdout.Len() != 0 {
			t.Fatalf("-experiment %s wrote to stdout: %q", name, stdout.String())
		}
		msg := stderr.String()
		if strings.Count(msg, "\n") != 1 || !strings.Contains(msg, `"`+name+`"`) ||
			!strings.Contains(msg, "table1") || !strings.Contains(msg, "poolscale") {
			t.Fatalf("-experiment %s: stderr %q, want one line naming it and the valid experiments", name, msg)
		}
	}
}

func TestHelpListsNoRetiredFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h: exit %d, want 0", code)
	}
	for _, gone := range []string{"-faults", "-chaos-seed"} {
		if strings.Contains(stderr.String(), gone) {
			t.Fatalf("-h still lists %s:\n%s", gone, stderr.String())
		}
	}
	if code := run([]string{"-faults"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-faults: exit %d, want 2", code)
	}
}
