package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// envStamp is written into every result: what the numbers were
// measured on.
type envStamp struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Commit      string `json:"commit"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	CPUModel    string `json:"cpu_model"`
	GoVersion   string `json:"go_version"`
	DataRoot    string `json:"data_root"`
	DataRootFS  string `json:"data_root_fs"`
	SyncPolicy  string `json:"sync_policy"`
	SegmentSize int    `json:"segment_size"`
	Cycles      int    `json:"cycles"`
	Disturbed   bool   `json:"disturbed"`
}

func stampEnv(workload string, seed int64, dataRoot string) envStamp {
	return envStamp{
		Workload:    workload,
		Seed:        seed,
		Commit:      headCommit(".."),
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		CPUModel:    cpuModel(),
		GoVersion:   runtime.Version(),
		DataRoot:    dataRoot,
		DataRootFS:  fsName(dataRoot),
		SyncPolicy:  "history: SyncNone; tenant and local repositories: SyncOnSeal (product default); fsync counted, not executed, as on the tmpfs data root the issue names",
		SegmentSize: segmentSize,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsName names the filesystem under dir from its statfs magic.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// headCommit reads the checked-out commit from root/.git without
// running git; a checkout that is not a repository reads "unknown".
func headCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(s, "ref: ")
	if !ok {
		return short(s)
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return short(strings.TrimSpace(string(b)))
	}
	if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return short(sha)
			}
		}
	}
	return "unknown"
}

func short(sha string) string {
	if len(sha) > 12 {
		return sha[:12]
	}
	return sha
}
