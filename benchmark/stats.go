package main

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/dsrhaslab/dio-go/internal/metrics"
)

// samples is a concurrency-safe bag of measurements (durations in ms unless
// the metric says otherwise).
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(v float64) {
	s.mu.Lock()
	s.v = append(s.v, v)
	s.mu.Unlock()
}

func (s *samples) addDur(d time.Duration) { s.add(ms(d)) }

func (s *samples) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

func (s *samples) sum() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t float64
	for _, x := range s.v {
		t += x
	}
	return t
}

// q returns the q-quantile (0 <= q <= 1) of the samples so far.
func (s *samples) q(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return quantile(s.v, q)
}

// quantile is the repository's nearest-rank percentile (metrics.Percentile)
// over a sorted copy of v; 0 when v is empty, so a layer that saw no sample
// reads 0 like any other layer a workload bypasses.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	return metrics.Percentile(sorted, q*100)
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// opMeter derives a closed loop's op-shaped metrics from one observation per
// op. The disturbances on this kind of host only ever add time — a noisy
// neighbour, a collection landing in the op — so ops_per_s is the upper
// quartile of the per-op rates (the reciprocal of the lower-quartile
// latency): the speed the system runs at when left alone. Over six runs of
// one seed it spread 7 % where the median spread 11 % and the mean 13 %. The
// median latency is still printed, as op_ms_p50.
type opMeter struct {
	rate  []float64 // 1 ÷ the op's latency, per op
	cpuUS []float64 // process CPU microseconds while the op ran, per op
}

func (o *opMeter) observe(wall, cpu time.Duration) {
	if wall <= 0 {
		return
	}
	o.rate = append(o.rate, 1/wall.Seconds())
	o.cpuUS = append(o.cpuUS, float64(cpu.Microseconds()))
}

func (o *opMeter) report(m *metricSet) {
	m.setN("ops_per_s", quantile(o.rate, 0.75), len(o.rate))
	m.setN("cpu_us_per_op", median(o.cpuUS), len(o.cpuUS))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// liveHeapBytes forces a collection and returns the heap still in use: what
// the process holds for the data it stores, without the garbage a phase left
// behind. Unlike the resident peak it does not depend on when the collector
// last ran.
func liveHeapBytes() float64 {
	// Twice: a sync.Pool's contents survive one collection in its victim cache.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
