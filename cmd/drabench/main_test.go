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
	retired := []string{"chaos", "faults", "pool", "scalability", "dos", "poolscale",
		"cascade", "verifycache", "elementwise", "multirecipient", "tfc", "crypto"}
	for _, name := range append([]string{"bogus"}, retired...) {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-experiment", name}, &stdout, &stderr); code != 2 {
			t.Fatalf("-experiment %s: exit %d, want 2", name, code)
		}
		if stdout.Len() != 0 {
			t.Fatalf("-experiment %s wrote to stdout: %q", name, stdout.String())
		}
		msg := stderr.String()
		if strings.Count(msg, "\n") != 1 || !strings.Contains(msg, `"`+name+`"`) ||
			!strings.Contains(msg, "table1") || !strings.Contains(msg, "table2") ||
			!strings.Contains(msg, "engine") {
			t.Fatalf("-experiment %s: stderr %q, want one line naming it and the valid experiments", name, msg)
		}
	}
}

// A key size testenv would not honour and a repetition count the tables
// would not run are usage errors: exit 2, nothing on stdout, one stderr
// line naming the flag, and no experiment started.
func TestBadBitsAndRepsRefused(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-bits", "0"}, "-bits"},
		{[]string{"-bits", "512"}, "-bits"},
		{[]string{"-bits", "-2048"}, "-bits"},
		{[]string{"-reps", "0"}, "-reps"},
		{[]string{"-reps", "-3"}, "-reps"},
	} {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-experiment", "engine"}, tc.args...)
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Fatalf("%v: exit %d, want 2", tc.args, code)
		}
		msg := stderr.String()
		if stdout.Len() != 0 || strings.Count(msg, "\n") != 1 || !strings.Contains(msg, tc.flag+" ") {
			t.Fatalf("%v: stdout %q, stderr %q, want one stderr line naming %s", tc.args, stdout.String(), msg, tc.flag)
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
