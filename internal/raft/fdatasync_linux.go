package raft

import (
	"os"
	"syscall"
)

// fdatasync flushes f's data, and its metadata only where a later read
// needs it (the size, when the file grew), to the device. Over a region
// FileStorage has already zero-filled that is a data write and a device
// flush with no filesystem journal commit. It goes to the descriptor
// directly — os.File has no Fdatasync, and the syscall.RawConn route
// allocates on every barrier — so, unlike f.Sync, it must not race f.Close;
// FileStorage's owner is parked on the barrier for exactly that long.
func fdatasync(f *os.File) error {
	for {
		if err := syscall.Fdatasync(int(f.Fd())); err != syscall.EINTR {
			return err
		}
	}
}
