package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestOutputGolden pins what the example prints by the first 16 hex
// digits of the SHA-256 of its stdout.
func TestOutputGolden(t *testing.T) {
	const want = "8eb0cf474d59e4ad"
	path := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = f
	err = run()
	os.Stdout = saved
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(out)
	if got := hex.EncodeToString(sum[:])[:16]; got != want {
		t.Errorf("stdout digest %s, want %s: the example's output changed. "+
			"If that is intended, update the constant in the same commit.\n%s", got, want, out)
	}
}
