package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ehna/internal/vecmath"
)

// runRecord says what a run ran on, so that a parent run and a child
// run can be shown to be comparable.
type runRecord struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	SourceHash string  `json:"source_sha256"`
	Backend    string  `json:"vecmath_backend"`
}

func newRunRecord(e *env) runRecord {
	return runRecord{
		Workload: e.workload, Seed: e.seed, Seconds: e.seconds, Trace: e.trace,
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		SourceHash: sourceHash("."),
		Backend:    vecmath.Backend(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceHash digests every .go, .s and go.mod file under root, skipping
// dot-directories (the build outputs live in one), in path order. It
// names the code under test where the checkout is not a git work tree.
func sourceHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || strings.HasSuffix(n, ".s") || n == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// statusMB reads one memory line of /proc/<pid>/status ("self" for this
// process) in MB: "VmHWM" for the peak resident set, "VmRSS" for the
// current one.
func statusMB(pid, key string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("%s of %s: %w", key, pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s line for process %s", key, pid)
}

// selfCPU is the CPU time, user plus system, this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// processCPU is the CPU time, user plus system, a process has used, in
// seconds, from /proc/<pid>/stat. Unlike wall time it does not grow
// while the hypervisor runs other guests.
func processCPU(pid string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name: state is field 3,
	// utime and stime are fields 14 and 15, in clock ticks of 1/100 s.
	_, rest, ok := strings.Cut(string(b), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%s/stat: unexpected format", pid)
	}
	var ticks float64
	for _, v := range f[11:13] {
		t, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%s/stat: %w", pid, err)
		}
		ticks += t
	}
	return ticks / 100, nil
}
