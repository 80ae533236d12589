//go:build amd64 || arm64

package raft

import (
	"fmt"
	"os"
	"strings"
	"syscall"
)

// sysSync issues one of the durability syscalls on f. opFdatasync
// flushes f's data, and its metadata only where a later read needs it
// (the size, when the file grew), to the device, and then the device's
// write cache — also when f has nothing dirty, so one call can close a
// round of written-back files. Over a region FileStorage has
// already zero-filled that is a data write and a device flush with no
// filesystem journal commit. It goes to the descriptor directly — os.File
// has no Fdatasync, and the syscall.RawConn route allocates on every
// barrier — so, unlike f.Sync, it must not race f.Close; FileStorage's
// owner is parked on the barrier for exactly that long.
//
// The write-back ops are sync_file_range over [off, off+n). opWriteBack
// (WRITE alone) is a hint: the kernel runs it as WB_SYNC_NONE write-out,
// which may pass over a page that is locked or already under I/O, so its
// return says only that the device has been given work; FileStorage.flush
// issues it so that the I/O runs while the flush waits for a round.
// opWriteBackWait (WAIT_BEFORE|WRITE|WAIT_AFTER) is the guarantee, and the
// round's: it waits out I/O in flight, writes whatever is still dirty as
// WB_SYNC_ALL, skipping nothing, and waits for that. Both commit no
// metadata and flush no cache, so they are a step toward durability only
// on a file overwritesInPlace accepts, over bytes already allocated and
// written, with an opFdatasync on the same device to follow.
func sysSync(op string, f *os.File, off, n int64) (err error) {
	for {
		switch op {
		case opFdatasync:
			err = syscall.Fdatasync(int(f.Fd()))
		case opWriteBack:
			err = syscall.SyncFileRange(int(f.Fd()), off, n, 2) // SYNC_FILE_RANGE_WRITE
		case opWriteBackWait:
			err = syscall.SyncFileRange(int(f.Fd()), off, n, 1|2|4) // WAIT_BEFORE | WRITE | WAIT_AFTER
		}
		if err != syscall.EINTR {
			return err
		}
	}
}

// overwritesInPlace reports f's device and whether its filesystem puts an
// overwrite of written blocks in those same blocks with no transaction:
// XFS, and ext2/3/4 unless mounted data=journal, where only a journal
// commit makes the bytes durable. Copy-on-write, stacked, network and
// FUSE filesystems and tmpfs are out — an overwrite there moves blocks or
// is somebody else's to write — and so is a mount table that cannot be
// read or does not list the device.
func overwritesInPlace(f *os.File) (dev uint64, ok bool) {
	var st syscall.Stat_t
	var fs syscall.Statfs_t
	if syscall.Fstat(int(f.Fd()), &st) != nil || syscall.Fstatfs(int(f.Fd()), &fs) != nil {
		return 0, false
	}
	switch fs.Type {
	case 0x58465342: // XFS_SUPER_MAGIC
		return st.Dev, true
	case 0xEF53: // EXT2/3/4_SUPER_MAGIC
		mounts, err := os.ReadFile("/proc/self/mountinfo")
		if err != nil {
			return st.Dev, false
		}
		id := fmt.Sprintf("%d:%d", st.Dev>>8&0xfff|st.Dev>>32&^0xfff, st.Dev&0xff|st.Dev>>12&^0xff) // major:minor
		for _, line := range strings.Split(string(mounts), "\n") {
			// "ID parent major:minor root mountpoint opts ... - type source superopts"
			if fld := strings.Fields(line); len(fld) > 2 && fld[2] == id {
				return st.Dev, !strings.Contains(","+fld[len(fld)-1]+",", ",data=journal,")
			}
		}
	}
	return st.Dev, false
}
