package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
)

// host identifies where and on what a result was measured, so results
// from different machines or sources are never compared as like for
// like.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	// Commit is the VCS revision the binary was built from, when the
	// build knew it; Source is a digest of the repository's Go sources
	// and goldens, which identifies the code even outside a checkout.
	Commit string `json:"commit"`
	Source string `json:"source_sha256"`
}

func fingerprint(root string) string {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     "unknown",
		Source:     sourceDigest(root),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	b, _ := json.Marshal(h) // a struct of strings and ints always marshals
	return string(b)
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
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

// sourceDigest hashes every .go, go.mod and .golden file under root's
// cmd and internal trees, in path order.
func sourceDigest(root string) string {
	var paths []string
	for _, dir := range []string{"cmd", "internal"} {
		filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && (strings.HasSuffix(p, ".go") || strings.HasSuffix(p, ".golden")) {
				paths = append(paths, p)
			}
			return nil
		})
	}
	paths = append(paths, filepath.Join(root, "go.mod"))
	sort.Strings(paths)
	sum := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(sum, filepath.ToSlash(rel)+"\x00")
		if f, err := os.Open(p); err == nil {
			io.Copy(sum, f)
			f.Close()
		}
	}
	return hex.EncodeToString(sum.Sum(nil))[:16]
}

// gcCounters returns the process's completed GC cycles and the CPU
// seconds the collector has spent so far.
func gcCounters() (cycles, cpu float64) {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		cycles = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		cpu = s[1].Value.Float64()
	}
	return cycles, cpu
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
