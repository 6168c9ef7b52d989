package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"pplivesim/internal/simnet"
)

// span is one traced interval. Every span of one trajectory shares Traj;
// Parent is the causing span's ID (0 for a trajectory's root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Traj    int    `json:"traj"`
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"`
	EndUs   int64  `json:"end_us"`
}

// tracer keeps spans in memory until write. A nil tracer records nothing, so
// untraced runs pay only a nil check per boundary.
type tracer struct {
	t0    time.Time
	traj  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) us(at time.Time) int64 { return at.Sub(t.t0).Microseconds() }

// begin opens a span and returns its ID; a parent of 0 starts a new
// trajectory.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	if parent == 0 {
		t.traj++
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Traj: t.traj, Name: name, StartUs: t.us(time.Now())})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndUs = t.us(time.Now())
}

// add records an already-closed span.
func (t *tracer) add(name string, parent int, start, end time.Time) {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Traj: t.traj, Name: name, StartUs: t.us(start), EndUs: t.us(end)})
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// barrierProbe is the benchmark's World().OnBarrier hook. It runs
// single-threaded between synchronization windows and only reads engine
// counters, so it cannot perturb the trajectory (the fingerprint check
// enforces this). Each call closes one window.
type barrierProbe struct {
	world  *simnet.World
	warmUp time.Duration
	tr     *tracer
	parent int

	runStart, last time.Time
	prev           []uint64 // per-domain Engine.Processed at the last barrier

	windowUs     []float64
	windowEvents []float64
	// sumMax / sumMean over windows of the per-domain event deltas give
	// domain_imbalance: how much longer the busiest domain works than the
	// average one.
	sumMax, sumMean float64
	pendingPeak     int
	heapPeak        uint64
	heap            []metrics.Sample

	warmSeen            bool
	warmupWall, runWall time.Duration
}

func newBarrierProbe(w *simnet.World, warmUp time.Duration, tr *tracer) *barrierProbe {
	return &barrierProbe{
		world:  w,
		warmUp: warmUp,
		tr:     tr,
		prev:   make([]uint64, len(w.Domains())),
		heap:   []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
	}
}

func (p *barrierProbe) start(parent int) {
	if p == nil {
		return
	}
	p.parent = parent
	for i, d := range p.world.Domains() {
		p.prev[i] = d.Engine().Processed()
	}
	p.runStart = time.Now()
	p.last = p.runStart
}

func (p *barrierProbe) onBarrier() {
	now := time.Now()
	var total, busiest uint64
	var virtual time.Duration
	pending := 0
	for i, d := range p.world.Domains() {
		e := d.Engine()
		n := e.Processed()
		delta := n - p.prev[i]
		p.prev[i] = n
		total += delta
		if delta > busiest {
			busiest = delta
		}
		pending += e.Pending()
		if e.Now() > virtual {
			virtual = e.Now()
		}
	}
	p.windowUs = append(p.windowUs, float64(now.Sub(p.last).Nanoseconds())/1e3)
	p.windowEvents = append(p.windowEvents, float64(total))
	p.sumMax += float64(busiest)
	p.sumMean += float64(total) / float64(len(p.prev))
	if pending > p.pendingPeak {
		p.pendingPeak = pending
	}
	metrics.Read(p.heap)
	if v := p.heap[0].Value.Uint64(); v > p.heapPeak {
		p.heapPeak = v
	}
	if !p.warmSeen && virtual >= p.warmUp {
		p.warmSeen = true
		p.warmupWall = now.Sub(p.runStart)
	}
	p.tr.add("window", p.parent, p.last, now)
	p.last = now
}

func (p *barrierProbe) finish() {
	if p == nil {
		return
	}
	p.runWall = time.Since(p.runStart)
	p.world = nil // outcomes outlive their simulation; do not pin it
	if !p.warmSeen {
		p.warmupWall = p.runWall
	}
}
