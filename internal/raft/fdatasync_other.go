//go:build !linux

package raft

import "os"

// fdatasync is fsync where the platform has no fdatasync the standard
// library reaches: still one barrier covering everything written.
func fdatasync(f *os.File) error { return f.Sync() }
