package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDirLockReportsHolder pins the diagnosable-double-open satellite:
// the losing acquire's error names the pid and hostname the winner
// stamped into the LOCK file, so a multi-tenant double-open failure
// identifies its holder instead of just saying "locked".
func TestDirLockReportsHolder(t *testing.T) {
	dir := t.TempDir()
	l, err := acquireDirLock(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()

	_, err = acquireDirLock(dir)
	if err == nil {
		t.Fatal("second acquire of a held lock succeeded")
	}
	msg := err.Error()
	if want := fmt.Sprintf("pid=%d", os.Getpid()); !strings.Contains(msg, want) {
		t.Errorf("error %q does not name the holder pid %s", msg, want)
	}
	if host, _ := os.Hostname(); host != "" && !strings.Contains(msg, "host="+host) {
		t.Errorf("error %q does not name the holder host %q", msg, host)
	}

	// Release and reacquire: the stamp is rewritten by the new holder.
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
	l2, err := acquireDirLock(dir)
	if err != nil {
		t.Fatalf("reacquire after release: %v", err)
	}
	defer l2.Release()
	b, err := os.ReadFile(filepath.Join(dir, lockFileName))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), fmt.Sprintf("pid=%d", os.Getpid())) {
		t.Errorf("LOCK content %q missing holder stamp", b)
	}
}

// TestDirLockEmptyStampStillErrors covers lock files created by older
// code (or truncated stamps): the error stays clear without a holder.
func TestDirLockEmptyStampStillErrors(t *testing.T) {
	dir := t.TempDir()
	l, err := acquireDirLock(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	// Blank the stamp behind the holder's back.
	if err := os.Truncate(filepath.Join(dir, lockFileName), 0); err != nil {
		t.Fatal(err)
	}
	_, err = acquireDirLock(dir)
	if err == nil {
		t.Fatal("second acquire succeeded")
	}
	if !strings.Contains(err.Error(), "locked by another process") {
		t.Errorf("fallback error lost clarity: %v", err)
	}
}
