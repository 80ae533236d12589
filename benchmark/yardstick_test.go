package main

import (
	"os"
	"runtime"
	"testing"
	"time"
)

// A reading is taken six times a run between segments: whatever it left
// behind — a goroutine, a socket, a file — would be measured as the
// program's.
func TestYardstickLeavesNothingBehind(t *testing.T) {
	dir := t.TempDir()
	before := runtime.NumGoroutine()
	for _, tcp := range []bool{false, true} {
		speed, parts, err := hostSpeed(dir, tcp)
		if err != nil {
			t.Fatal(err)
		}
		if want := len(yardSubstrates(tcp)); speed <= 0 || len(parts) != want {
			t.Fatalf("tcp=%v: speed %v from %d parts, want > 0 from %d", tcp, speed, len(parts), want)
		}
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Errorf("files left in the data directory: %v %v", left, err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines before, %d after", before, n)
	}
}
