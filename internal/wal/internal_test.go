package wal

import (
	"errors"
	"os"
	"testing"
)

// FailReopen makes the reopen that follows a Rewrite's rename fail for
// the rest of the test: the one failure a real filesystem will not
// produce on demand.
func FailReopen(t *testing.T) {
	openFile = func(name string, flag int, perm os.FileMode) (*os.File, error) {
		if flag&os.O_CREATE == 0 {
			return nil, errors.New("injected: reopen after rename failed")
		}
		return os.OpenFile(name, flag, perm)
	}
	t.Cleanup(func() { openFile = os.OpenFile })
}

// TestAppendWriteFailureLatches: a failed write may have left part of a
// frame at the end of the file; frames appended behind it would be
// quarantined with it on the next boot, so the log must stop accepting
// them.
func TestAppendWriteFailureLatches(t *testing.T) {
	l, _, err := Open(t.TempDir()+"/log", func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	l.f.Close() // the next write fails, as on a full disk
	if err := l.Append([]byte("x")); !errors.Is(err, ErrFailed) {
		t.Fatalf("Append with a failing write = %v, want ErrFailed", err)
	}
	if err := l.Append([]byte("y")); err != ErrFailed {
		t.Fatalf("Append after a failed write = %v, want ErrFailed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close of a failed log = %v", err)
	}
}
