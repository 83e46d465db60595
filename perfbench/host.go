package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// host identifies the machine and the source a result came from.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is a SHA-256 over the module's Go sources and go.mod files:
	// the benchmark runs in checkouts that are not git repositories, so
	// it names the source by content instead of by commit id.
	Commit string `json:"commit"`
}

func fingerprint(root string) host {
	return host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     sourceDigest(root),
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

// sourceDigest hashes the path and content of every .go and go.mod file
// under root, skipping hidden directories (build output lives there).
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel + "\x00"))
		h.Write(b)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// goSample is a point-in-time reading of the Go runtime and the
// process's CPU clock.
type goSample struct {
	at       time.Time
	gcCPU    float64 // seconds
	totalCPU float64 // seconds, as the runtime accounts them
	allocs   uint64  // heap objects allocated
	procCPU  time.Duration
}

var goMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
}

func readGo() goSample {
	ms := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only on a bad argument
	return goSample{
		at:       time.Now(),
		gcCPU:    ms[0].Value.Float64(),
		totalCPU: ms[1].Value.Float64(),
		allocs:   ms[2].Value.Uint64(),
		procCPU:  time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// goDelta is what the Go runtime did between two samples.
type goDelta struct {
	gcCPUFrac float64 // GC CPU over all CPU the runtime accounted
	allocs    uint64
	cpuUtil   float64 // process CPU / wall / GOMAXPROCS
}

func diffGo(a, b goSample) goDelta {
	var d goDelta
	if tot := b.totalCPU - a.totalCPU; tot > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / tot
	}
	d.allocs = b.allocs - a.allocs
	if wall := b.at.Sub(a.at); wall > 0 {
		d.cpuUtil = float64(b.procCPU-a.procCPU) / float64(wall) / float64(runtime.GOMAXPROCS(0))
	}
	return d
}

// heapWatch samples the live heap every few milliseconds until stopped
// and keeps the largest value seen. Only traced runs sample: the
// untraced run's figures must not carry the sampler's cost.
type heapWatch struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func watchHeap(on bool) *heapWatch {
	if !on {
		return nil
	}
	h := &heapWatch{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// done stops the sampler and returns the peak live heap in MB.
func (h *heapWatch) done() float64 {
	if h == nil {
		return 0
	}
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}
