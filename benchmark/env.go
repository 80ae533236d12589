package main

import (
	"fmt"
	"runtime"
	"syscall"
)

// environment is the header every output carries, so a number can be
// traced to the commit, toolchain and machine that produced it.
type environment struct {
	GitRevision string `json:"git_revision"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	DataFS      string `json:"data_dir_fs"`
	Seed        uint64 `json:"seed"`
	WindowS     int    `json:"window_s"`
}

func currentEnvironment(dataDir string, seed uint64, seconds int) environment {
	return environment{
		GitRevision: buildRevision,
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		DataFS:      fsType(dataDir),
		Seed:        seed,
		WindowS:     seconds,
	}
}

// buildRevision is set by run.sh (-ldflags -X) to the checkout's git
// revision; a checkout that is not a git repository has none.
var buildRevision = "unknown"

// fsType names the filesystem under dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
