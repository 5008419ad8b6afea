package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metric is one reported number with its unit, the form both the report
// and the driver's result line carry.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v (0 for an empty slice).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile is the nearest-rank p-th percentile (p in (0, 100]): the
// smallest sample with at least p percent of the samples at or below it.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the
// default exclusive method), which is what the acceptance rule for the
// run-to-run spread is stated in. Fewer than two values yield the value
// itself three times.
func quartiles(v []float64) [3]float64 {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		return [3]float64{}
	}
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// meanPerOp is the time-to-solution figure: total wall over operations,
// so rare expensive operations (the distributed backend's periodic state
// snapshot) count in full — a median per-operation time would hide them.
func meanPerOp(totalMs float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return totalMs / float64(ops)
}

// digestFloats is the SHA-256 of the samples' IEEE-754 bits, trace by
// trace.
func digestFloats(traces [][]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, tr := range traces {
		for _, v := range tr {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestBytes(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// tracesLive is the guard against vacuous byte comparisons: every sample
// must be finite and every trace must carry at least one nonzero sample.
func tracesLive(traces [][]float64) bool {
	if len(traces) == 0 {
		return false
	}
	for _, tr := range traces {
		live := false
		for _, v := range tr {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
			if v != 0 {
				live = true
			}
		}
		if !live {
			return false
		}
	}
	return true
}

// csvColumns parses streamed seismogram rows (header, then "t,v1,v2,...")
// into one sample slice per receiver column.
func csvColumns(rows []byte) [][]float64 {
	lines := strings.Split(strings.TrimSpace(string(rows)), "\n")
	if len(lines) < 2 {
		return nil
	}
	ncol := strings.Count(lines[0], ",")
	cols := make([][]float64, ncol)
	for _, ln := range lines[1:] {
		f := strings.Split(ln, ",")
		if len(f) != ncol+1 {
			return nil
		}
		for c := 0; c < ncol; c++ {
			v, err := strconv.ParseFloat(f[c+1], 64)
			if err != nil {
				return nil
			}
			cols[c] = append(cols[c], v)
		}
	}
	return cols
}

// peakRSSMB is the peak resident memory of this process plus that of its
// live child processes (the distributed backend's ranks), from the
// kernel's VmHWM high-water marks. Call it before the children are
// reaped. Where /proc is unavailable it falls back to the Go runtime's
// own view of this process.
func peakRSSMB() float64 {
	self := os.Getpid()
	kb, ok := vmHWM("/proc/self/status")
	if !ok {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.Sys) / (1 << 20)
	}
	stats, _ := filepath.Glob("/proc/[0-9]*/status")
	for _, st := range stats {
		if ppidOf(st) == self {
			if c, ok := vmHWM(st); ok {
				kb += c
			}
		}
	}
	return kb / 1024
}

func statusField(path, key string) (string, bool) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", false
	}
	for _, ln := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(ln, key) {
			return strings.TrimSpace(strings.TrimPrefix(ln, key)), true
		}
	}
	return "", false
}

func vmHWM(path string) (float64, bool) {
	f, ok := statusField(path, "VmHWM:")
	if !ok {
		return 0, false
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(f, " kB"), 64)
	return kb, err == nil
}

func ppidOf(path string) int {
	f, _ := statusField(path, "PPid:")
	n, _ := strconv.Atoi(f)
	return n
}

// loadAvg is the 1-minute load average ("" where /proc is unavailable).
func loadAvg() string {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return ""
	}
	f := strings.Fields(string(raw))
	if len(f) == 0 {
		return ""
	}
	return f[0]
}
