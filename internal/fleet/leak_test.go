package fleet

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestCheckpointFailureLeaksNoGoroutines: when a mid-campaign checkpoint
// save fails, Run must cancel the feeder and worker pool and drain it
// before returning. The previous collector returned from the results loop
// immediately on that path, stranding every worker blocked on the
// unbuffered results channel plus the feeder — this test fails against
// that code.
//
// The failure is induced by deleting the checkpoint's directory after the
// first shard lands (saves happen before Observe fires, so the first save
// succeeds and every later one fails at CreateTemp). Deleting the
// directory rather than chmod'ing it keeps the test honest under root,
// where permission bits don't bite.
func TestCheckpointFailureLeaksNoGoroutines(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	c := testCampaign(t)
	c.Workers = 4
	c.CheckpointPath = filepath.Join(dir, "ck.json")
	broke := false
	c.Observe = func(Progress) {
		if !broke {
			broke = true
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
		}
	}

	before := runtime.NumGoroutine()
	_, err := c.Run()
	if err == nil {
		t.Fatal("Run succeeded despite the checkpoint directory vanishing")
	}
	if !strings.Contains(err.Error(), "write checkpoint") {
		t.Fatalf("unexpected error: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("pool leaked after checkpoint failure: %d goroutines, baseline %d\n%s",
				runtime.NumGoroutine(), before, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
