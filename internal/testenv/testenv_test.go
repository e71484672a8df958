package testenv

import (
	"strings"
	"testing"
)

func TestProcessIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := ProcessID()
		if seen[id] {
			t.Fatal("duplicate process id")
		}
		seen[id] = true
		if !strings.HasPrefix(id, "proc-") {
			t.Fatalf("id = %q", id)
		}
	}
}
