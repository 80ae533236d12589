//go:build !linux || !(amd64 || arm64)

package raft

import (
	"os"
	"syscall"
)

// sysSync's opFdatasync is fsync where the platform has no fdatasync the
// standard library reaches: still one barrier covering everything
// written. No filesystem is known to overwrite in place here: a store's
// first submit is refused, and the file is never written back after it.
func sysSync(op string, f *os.File, _, _ int64) error {
	if op != opFdatasync {
		return syscall.ENOSYS
	}
	return f.Sync()
}

func overwritesInPlace(*os.File) (uint64, bool) { return 0, false }
