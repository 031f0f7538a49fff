package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// span is one timed layer call. Start and End are offsets from the tracer's
// epoch; Parent indexes the enclosing span (-1 at top level); Op is the
// operation the span belongs to (-1 for set-up and isolated calls).
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory for the whole run. The benchmark is a closed
// loop with one caller, so at most one operation is in flight; spans opened
// on server goroutines (the backend wrapper) nest under whatever span the
// caller has open, which is the HTTP request that caused them. A nil or
// disabled tracer records nothing.
type tracer struct {
	on    bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
	open  []int
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// begin opens a span and returns its id for end.
func (t *tracer) begin(name string, op int) int {
	if !t.on {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id; closing a closed span does nothing, so error paths
// can defer it.
func (t *tracer) end(id int) {
	if !t.on || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spans[id].End >= 0 {
		return
	}
	t.spans[id].End = now
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = t.open[:i]
			break
		}
	}
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Count  int     `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	SelfMs float64 `json:"self_mean_ms"`
}

// layers folds the spans into per-name totals. A span's self time is its
// duration minus the part of its interval its children cover.
func (t *tracer) layers() map[string]layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	type acc struct {
		n          int
		total, own time.Duration
	}
	sum := map[string]*acc{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		a := sum[s.Name]
		if a == nil {
			a = &acc{}
			sum[s.Name] = a
		}
		d := s.End - s.Start
		a.n++
		a.total += d
		a.own += d - t.covered(s, children[i])
	}
	out := make(map[string]layerStat, len(sum))
	for name, a := range sum {
		out[name] = layerStat{
			Count:  a.n,
			MeanMs: ms(a.total) / float64(a.n),
			SelfMs: ms(a.own) / float64(a.n),
		}
	}
	return out
}

// covered measures the union of the children's intervals clipped to s.
func (t *tracer) covered(s span, kids []int) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		c := t.spans[k]
		if c.End < 0 {
			continue
		}
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// usage is a point-in-time sample of the process counters the traced run
// reads at every operation boundary.
type usage struct {
	cpu   time.Duration // user + system CPU of the whole process
	alloc uint64        // cumulative heap bytes allocated
	gcs   uint32        // completed GC cycles
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: m.TotalAlloc,
		gcs:   m.NumGC,
	}
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
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
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// cpuJiffies reads the aggregate steal and idle jiffies from /proc/stat.
func cpuJiffies() (steal, idle int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat cpu line %q", line)
	}
	if idle, err = strconv.ParseInt(f[4], 10, 64); err != nil {
		return 0, 0, err
	}
	if steal, err = strconv.ParseInt(f[8], 10, 64); err != nil {
		return 0, 0, err
	}
	return steal, idle, nil
}

// host is the run's machine record: what ran the numbers, and how much CPU
// the hypervisor took away while they were measured.
type host struct {
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	StealJiffy  int64  `json:"steal_jiffies"`
	IdleJiffy   int64  `json:"idle_jiffies"`
	steal, idle int64
}

func startHost() *host {
	h := &host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	h.steal, h.idle, _ = cpuJiffies() // a host without /proc/stat records zeros
	return h
}

func (h *host) finish() {
	steal, idle, err := cpuJiffies()
	if err == nil {
		h.StealJiffy, h.IdleJiffy = steal-h.steal, idle-h.idle
	}
}

// settle spins every core for d without touching program state, so the
// timed set-up does not land on a host that has just woken from idle.
func settle(d time.Duration) {
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(1)
			for time.Now().Before(deadline) {
				for j := 0; j < 1<<14; j++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
			}
			sink.Add(x)
		}()
	}
	wg.Wait()
}

// sink keeps measured loops' results live so the compiler cannot drop them.
var sink atomic.Uint64
