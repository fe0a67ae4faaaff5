package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// fingerprint identifies where and what a result was measured on.
// Results are only comparable when their host part matches; the commit
// and source digest say which code was measured.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	// Commit is pcs's own build identity (`pcs version`): the VCS
	// revision in a git checkout, "unknown" in an exported tree.
	Commit string `json:"commit"`
	// Source is a SHA-256 over the program's source files, which
	// identifies the code even where no VCS metadata exists.
	Source string `json:"source_sha256"`
	Seed   uint64 `json:"seed"`
}

// host is the part of the fingerprint two compared results must share.
func (f fingerprint) host() string {
	return fmt.Sprintf("%s|nproc=%d|gomaxprocs=%d|%s", f.CPU, f.NProc, f.GOMAXPROCS, f.Go)
}

func takeFingerprint(e *env) fingerprint {
	fp := fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown",
		Source:     sourceDigest(e.root),
		Seed:       e.seed,
	}
	if out, err := exec.Command(e.pcs, "version").Output(); err == nil {
		fp.Commit = strings.TrimPrefix(strings.TrimSpace(string(out)), "pcs version ")
	}
	return fp
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

// sourceDigest hashes go.mod and every file under cmd/, internal/ and
// examples/ (path and content, in walk order).
func sourceDigest(root string) string {
	h := sha256.New()
	add := func(path string) {
		f, err := os.Open(path)
		if err != nil {
			return
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		_, _ = io.Copy(h, f) // a read error only perturbs the digest
	}
	add(filepath.Join(root, "go.mod"))
	for _, dir := range []string{"cmd", "internal", "examples"} {
		_ = filepath.WalkDir(filepath.Join(root, dir), func(path string, d os.DirEntry, err error) error {
			if err == nil && d.Type().IsRegular() {
				add(path)
			}
			return nil
		})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
