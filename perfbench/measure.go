package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tailBeyond is how many samples must lie beyond the reported tail
// percentile: fewer makes the tail one or two unlucky requests.
const tailBeyond = 10

// tail is the latency at the highest percentile that still has at least
// tailBeyond samples beyond it.
type tail struct {
	Value      float64 // the sample at that rank
	Percentile float64 // 100 * (n - tailBeyond) / n
	Samples    int     // n, the samples the percentile is taken over
}

// tailLatency applies the tail rule to xs: with n samples sorted ascending,
// the highest rank with tailBeyond samples above it is n-tailBeyond (1-based),
// so the tail is that sample and its percentile is 100*(n-tailBeyond)/n.
// ok is false when there are not more than tailBeyond samples, so no such
// percentile exists and the tail must be omitted.
func tailLatency(xs []float64) (t tail, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return tail{}, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := n - tailBeyond
	return tail{Value: s[rank-1], Percentile: 100 * float64(rank) / float64(n), Samples: n}, true
}

// usage is a snapshot of the process-wide counters the per-request
// accounting divides by the request count.
type usage struct {
	cpu      time.Duration // user + system CPU of this process
	alloc    uint64        // cumulative heap bytes allocated
	gcCycles uint64        // completed GC cycles
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readUsage() (usage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}, fmt.Errorf("getrusage: %w", err)
	}
	s := append([]metrics.Sample(nil), usageSamples...)
	metrics.Read(s)
	return usage{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
	}, nil
}

// perRequest is the accounting of one timed phase: counter deltas divided
// by the requests completed in it.
type perRequest struct {
	CPUms   float64 // CPU milliseconds per request
	AllocMB float64 // heap MB (10^6 bytes) allocated per request
	GC      float64 // GC cycles per request
}

func accountPerRequest(before, after usage, requests int) perRequest {
	if requests <= 0 {
		return perRequest{}
	}
	n := float64(requests)
	return perRequest{
		CPUms:   float64(after.cpu-before.cpu) / float64(time.Millisecond) / n,
		AllocMB: float64(after.alloc-before.alloc) / 1e6 / n,
		GC:      float64(after.gcCycles-before.gcCycles) / n,
	}
}

// peakRSSMB returns the process's high-water resident set size (VmHWM) in
// MB. It counts the pages of the memory-mapped graph that were touched.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %q: %w", line, err)
		}
		return kb * 1024 / 1e6, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// facts are the conditions of a run, printed beside its metrics so two
// runs can be compared only when they match.
type facts struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Vertices   int    `json:"vertices"`
	Edges      int    `json:"edges"`
	FGRBytes   int64  `json:"fgr_bytes"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	L2         string `json:"l2"`
	L3         string `json:"l3"`
	Workers    int    `json:"workers"`
	Cores      int    `json:"cores_per_worker"`
	Traced     bool   `json:"traced"`
	Seconds    int    `json:"seconds"`
}

func hostFacts() facts {
	return facts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		L2:         cacheSize(2),
		L3:         cacheSize(3),
	}
}

// cacheSize reads CPU 0's unified or data cache size at the given level
// from sysfs ("" when the host does not expose it).
func cacheSize(level int) string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lv, err := os.ReadFile(filepath.Join(d, "level"))
		if err != nil || strings.TrimSpace(string(lv)) != strconv.Itoa(level) {
			continue
		}
		typ, _ := os.ReadFile(filepath.Join(d, "type"))
		if t := strings.TrimSpace(string(typ)); t == "Instruction" {
			continue
		}
		size, err := os.ReadFile(filepath.Join(d, "size"))
		if err == nil {
			return strings.TrimSpace(string(size))
		}
	}
	return ""
}
