package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method), so
// the comparison mode reports the same spread the acceptance check uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// The integer arithmetic of CPython's statistics.quantiles.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// procStats is one sample of the process counters the end-to-end and
// process-level metrics are deltas of.
type procStats struct {
	at        time.Time
	cpu       time.Duration // user + system (getrusage)
	numGC     uint32
	allocated uint64 // cumulative heap bytes allocated
	wchar     uint64 // bytes written through write(2) and friends
	steal     uint64 // machine-wide stolen CPU time, in clock ticks
	cpuTotal  uint64 // machine-wide CPU time of all kinds, in clock ticks
}

func sampleProc() procStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	steal, total := machineSteal()
	return procStats{
		at:        time.Now(),
		cpu:       processCPU(),
		steal:     steal,
		cpuTotal:  total,
		numGC:     m.NumGC,
		allocated: m.TotalAlloc,
		wchar:     procField("/proc/self/io", "wchar"),
	}
}

// processCPU returns the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// machineSteal reads the aggregate "cpu" line of /proc/stat and returns
// its steal column and the sum of all columns.
func machineSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		n, _ := strconv.ParseUint(f, 10, 64)
		// Columns 9 and 10 (guest time) are already counted in user time.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	return float64(procField("/proc/self/status", "VmHWM")) / 1024
}

// resetPeakRSS restarts the VmHWM high-water mark at the current RSS.
func resetPeakRSS() {
	// Best-effort: without it, peak_rss_mb also covers input generation.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// procField reads one "name: value" line of a /proc file, returning the
// first number after the colon (0 when the file or field is missing).
func procField(path, name string) uint64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok || key != name {
			continue
		}
		fields := strings.Fields(val)
		if len(fields) == 0 {
			return 0
		}
		n, _ := strconv.ParseUint(fields[0], 10, 64)
		return n
	}
	return 0
}
