package main

// Host fingerprint, recorded with every run so figures from different
// hosts are never compared unawares.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// fsTypes names the statfs magic numbers of common filesystems.
var fsTypes = map[int64]string{
	0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
	0x9123683E: "btrfs", 0x6969: "nfs", 0x01021997: "9p", 0x65735546: "fuse",
	0x2fc12fc1: "zfs", 0xf15f: "ecryptfs", 0x5346544e: "ntfs",
}

// fingerprint describes the host, the build and the run's inputs.
// cpu_steal is the share of CPU time the hypervisor withheld since start:
// a busy host shows there before it shows in the figures.
func fingerprint(cfg config, start cpuTimes) map[string]any {
	end := readCPUTimes()
	steal := 0.0
	if total := end.total - start.total; total > 0 {
		steal = (end.steal - start.steal) / total
	}
	return map[string]any{
		"cpu_steal":  steal,
		"commit":     commit(cfg.root),
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"wal_fs":     filesystem(cfg.dir),
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
	}
}

// commit returns the checkout's git commit or, outside a git repository,
// a digest of its Go sources and module files.
func commit(root string) string {
	// Ask git only about the checkout itself, never an enclosing repository.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		io.WriteString(h, rel+"\n")
		if b, err := os.ReadFile(f); err == nil {
			h.Write(b)
		}
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuModel reads the first CPU's model name.
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

// filesystem names the filesystem holding dir.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsTypes[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// cpuTimes is the host's cumulative CPU time and its stolen part, in
// clock ticks.
type cpuTimes struct{ total, steal float64 }

// readCPUTimes reads the aggregate cpu line of /proc/stat (zero where it
// is unavailable).
func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 {
		return cpuTimes{}
	}
	var t cpuTimes
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			break
		}
		t.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			t.steal = v
		}
	}
	return t
}
