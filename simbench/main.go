// Command simbench is the simulator's end-to-end benchmark. It builds and
// runs one named workload through core.Build / Sim.Run / Result.ProbeReport
// for a fixed wall-clock budget, checks the simulation's outputs, and prints
// one JSON object as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, and the spans are written under --trace-dir.
// See README.md for the workloads and metric definitions.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"pplivesim/internal/core"
)

// setupSamples is how many core.Build calls a measured run times in all;
// building is milliseconds, so one per trajectory would leave a noisy median.
const setupSamples = 41

type options struct {
	workload workloadDef
	seed     int64
	seconds  time.Duration
	trace    bool
	short    bool
	workers  int
	traceDir string
	log      io.Writer
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "measurement budget in wall seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "simbench-traces"), "where the traced run writes its spans")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintf(os.Stderr, "usage: simbench --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n", workloadNames())
		os.Exit(2)
	}
	out := bufio.NewWriter(os.Stdout)
	res, err := run(options{
		workload: w,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		workers:  min(benchWorkers, runtime.NumCPU()),
		traceDir: *traceDir,
		log:      out,
	})
	if res != nil {
		line, jerr := json.Marshal(res)
		if jerr != nil {
			err = errors.Join(err, jerr)
		} else {
			fmt.Fprintf(out, "%s\n", line)
		}
	}
	if ferr := out.Flush(); ferr != nil {
		err = errors.Join(err, ferr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

// run executes one benchmark run. A failed check still yields a result,
// with correct=false and every attempted playback deadline counted failed.
func run(o options) (*result, error) {
	// An untimed short trajectory first, so the process's first page faults
	// and heap growth do not land on a measured run.
	if _, err := runTrajectory(o.workload, o.seed, true, o.workers, nil); err != nil {
		return &result{Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}}, fmt.Errorf("warm-up: %w", err)
	}
	var values map[string]float64
	var attempted uint64
	var err error
	defs := endToEnd
	if o.trace {
		defs = perLayer
		values, attempted, err = traced(o)
	} else {
		values, attempted, err = measured(o)
	}
	res := &result{Correct: err == nil, Attempted: max(attempted, 1), Metrics: map[string]metricValue{}}
	if err != nil {
		res.Failed = res.Attempted
		return res, err
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not computed", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		kind := "varies run to run"
		if d.deterministic {
			kind = "fixed per seed"
		}
		fmt.Fprintf(o.log, "# %-24s %-14s %-12s %s\n", d.name, strconv.FormatFloat(v, 'g', 6, 64), d.unit, kind)
	}
	return res, nil
}

// measured runs the workload's trajectories in rotation until the budget is
// spent, after at least one repeat of the first, and returns the end-to-end
// metrics. Every repeat must reproduce its trajectory's fingerprint.
func measured(o options) (map[string]float64, uint64, error) {
	w := o.workload
	seeds := trajectorySeeds(o.seed, w.trajectories)
	sc := w.scenario(seeds[0], o.short)
	fmt.Fprintf(o.log, "# workload %s: %d configured viewers x %v horizon, %d workers, trajectory seeds %v\n",
		w.name, configuredViewers(sc), sc.WarmUp+sc.Watch, o.workers, seeds)

	setups, err := setupTimes(w, seeds, o.short, setupSamples-(w.trajectories+1))
	if err != nil {
		return nil, 0, err
	}
	var outs []*repOutcome
	var attempted uint64
	start := time.Now()
	for i := 0; ; i++ {
		if i > w.trajectories {
			elapsed := time.Since(start)
			if elapsed+elapsed/time.Duration(i) > o.seconds {
				break
			}
		}
		out, err := runTrajectory(w, seeds[i%len(seeds)], o.short, o.workers, nil)
		if out != nil {
			attempted += out.peers.deadlines
		}
		if err != nil {
			return nil, attempted, err
		}
		if i >= len(seeds) {
			if first := outs[i%len(seeds)].fp; out.fp != first {
				return nil, attempted, fmt.Errorf("seed %d is not deterministic: repeat %v, first %v", out.seed, out.fp, first)
			}
		}
		fmt.Fprintf(o.log, "# trajectory seed=%d setup=%.4fs run=%.3fs viewer_s_per_s=%.1f %v\n",
			out.seed, out.setup.Seconds(), out.run.Seconds(), out.work/out.run.Seconds(), out.fp)
		outs = append(outs, out)
		setups = append(setups, out.setup.Seconds())
	}

	vps := make([]float64, len(outs))
	for i, out := range outs {
		vps[i] = out.work / out.run.Seconds()
	}
	v := outcomeMetrics(outs[:len(seeds)], o.log)
	v["setup_s"] = newDist(setups).median()
	v["viewer_s_per_s"] = newDist(vps).median()
	v["peak_rss_mb"] = peakRSSMB()
	fmt.Fprintf(o.log, "# checks passed: %d trajectories, %d repeats with identical fingerprints, %d set-up samples\n",
		len(seeds), len(outs)-len(seeds), len(setups))
	return v, attempted, nil
}

// setupTimes times n core.Build calls after one untimed warm-up build,
// rotating through the trajectory seeds.
func setupTimes(w workloadDef, seeds []int64, short bool, n int) ([]float64, error) {
	var out []float64
	for i := 0; i <= n; i++ {
		sc := w.scenario(seeds[i%len(seeds)], short)
		runtime.GC()
		t0 := time.Now()
		if _, err := core.Build(sc); err != nil {
			return nil, fmt.Errorf("build %s: %w", w.name, err)
		}
		if i > 0 {
			out = append(out, time.Since(t0).Seconds())
		}
	}
	return out, nil
}

// outcomeMetrics pools the simulated viewers of a run's distinct
// trajectories into the outcome metrics.
func outcomeMetrics(outs []*repOutcome, log io.Writer) map[string]float64 {
	var cont, start []float64
	var ls, lt, ss, st uint64
	for _, o := range outs {
		cont = append(cont, o.continuity...)
		start = append(start, o.startup...)
		ls, lt, ss, st = ls+o.localSame, lt+o.localTotal, ss+o.swarmSame, st+o.swarmTotal
	}
	c, s := newDist(cont), newDist(start)
	fmt.Fprintf(log, "# continuity over %d viewers; continuity_tail is the %s\n", len(c), c.tailLabel())
	fmt.Fprintf(log, "# startup over %d viewers that reached steady state; startup_tail_s is the %s\n", len(s), s.tailLabel())
	return map[string]float64{
		"locality":        ratio(float64(ls), float64(lt)),
		"swarm_locality":  ratio(float64(ss), float64(st)),
		"continuity_p50":  c.median(),
		"continuity_tail": c.lowTail(),
		"startup_p50_s":   s.median(),
		"startup_tail_s":  s.highTail(),
	}
}

// peakRSSMB reads the process's resident-memory high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// traced runs the first trajectory untraced at the benchmark's worker
// count, traced at the same count, and untraced at one worker, in rotation
// until the budget is spent; all must share one fingerprint. It returns the
// per-layer metrics.
func traced(o options) (map[string]float64, uint64, error) {
	w := o.workload
	seed := trajectorySeeds(o.seed, 1)[0]
	modes := []struct {
		workers int
		traced  bool
	}{{o.workers, false}, {o.workers, true}, {1, false}}
	tr := newTracer()
	var plain, withTrace, single []*repOutcome
	var attempted uint64
	var first fingerprint
	start := time.Now()
	for i := 0; ; i++ {
		if i >= len(modes) && i%len(modes) == 0 {
			elapsed := time.Since(start)
			if elapsed+elapsed/time.Duration(i/len(modes)) > o.seconds {
				break
			}
		}
		m := modes[i%len(modes)]
		var t *tracer
		if m.traced {
			t = tr
		}
		out, err := runTrajectory(w, seed, o.short, m.workers, t)
		if out != nil {
			attempted += out.peers.deadlines
		}
		if err != nil {
			return nil, attempted, err
		}
		if i == 0 {
			first = out.fp
		} else if out.fp != first {
			return nil, attempted, fmt.Errorf("seed %d: workers=%d traced=%v fingerprint %v differs from %v", seed, m.workers, m.traced, out.fp, first)
		}
		fmt.Fprintf(o.log, "# trajectory seed=%d workers=%d traced=%v run=%.3fs %v\n", seed, m.workers, m.traced, out.run.Seconds(), out.fp)
		switch {
		case m.traced:
			withTrace = append(withTrace, out)
		case m.workers == 1:
			single = append(single, out)
		default:
			plain = append(plain, out)
		}
	}
	path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
	if err := tr.write(path); err != nil {
		return nil, attempted, err
	}
	fmt.Fprintf(o.log, "# %d spans written to %s\n", len(tr.spans), path)
	return layerMetrics(plain, withTrace, single, o.log), attempted, nil
}

// layerMetrics derives the per-layer metrics. Counters come from the
// trajectory itself (identical in every mode); timings are medians over the
// runs of the mode that measures them.
func layerMetrics(plain, withTrace, single []*repOutcome, log io.Writer) map[string]float64 {
	simRun := func(outs []*repOutcome) float64 {
		v := make([]float64, len(outs))
		for i, o := range outs {
			v[i] = (o.run - o.report).Seconds()
		}
		return newDist(v).median()
	}
	med := func(outs []*repOutcome, f func(*repOutcome) float64) float64 {
		v := make([]float64, len(outs))
		for i, o := range outs {
			v[i] = f(o)
		}
		return newDist(v).median()
	}
	vps := func(o *repOutcome) float64 { return o.work / o.run.Seconds() }

	o := plain[0]
	var windowUs, windowEvents []float64
	var heapPeak uint64
	for _, t := range withTrace {
		windowUs = append(windowUs, t.barrier.windowUs...)
		windowEvents = append(windowEvents, t.barrier.windowEvents...)
		heapPeak = max(heapPeak, t.barrier.heapPeak)
	}
	b := withTrace[0].barrier
	wu := newDist(windowUs)
	fmt.Fprintf(log, "# %d windows per trajectory; window_us_tail is the %s\n", len(b.windowUs), wu.tailLabel())
	fmt.Fprintf(log, "# per-viewer samples: %d continuity, %d startup\n", len(o.continuity), len(o.startup))

	var served, bytes, shed uint64
	for _, e := range o.edges {
		served, bytes, shed = served+e.Served, bytes+e.ServedBytes, shed+e.Shed
	}
	ps := o.peers.stats
	events := float64(o.fp.Events)
	net := o.fp
	netAll := float64(net.Delivered + net.DropLoss + net.DropQueue + net.DropNoHst)
	untracedVPS := med(plain, vps)
	tracedVPS := med(withTrace, vps)
	return map[string]float64{
		"heap_after_build_mb": float64(withTrace[0].heapAfterBuild) / (1 << 20),

		"events":              events,
		"events_per_s":        events / simRun(plain),
		"timers_pending_peak": float64(b.pendingPeak),

		"windows":               float64(len(b.windowUs)),
		"window_us_p50":         wu.median(),
		"window_us_tail":        wu.highTail(),
		"events_per_window_p50": newDist(windowEvents).median(),
		"domain_imbalance":      ratio(b.sumMax, b.sumMean),
		"parallel_speedup":      simRun(single) / simRun(plain),

		"net_delivered":       float64(net.Delivered),
		"net_drop_queue_frac": ratio(float64(net.DropQueue), netAll),
		"net_drop_loss":       float64(net.DropLoss),
		"net_drop_nohost":     float64(net.DropNoHst),

		"data_requests":          float64(ps.DataRequestsSent),
		"data_reply_ratio":       ratio(float64(ps.DataRepliesGot), float64(ps.DataRequestsSent)),
		"data_timeouts":          float64(ps.RequestTimeouts),
		"data_busies":            float64(ps.DataBusies),
		"dup_recv_ratio":         ratio(float64(o.peers.dups), float64(o.peers.received+o.peers.dups)),
		"handshake_accept_ratio": ratio(float64(ps.HandshakesAccepted), float64(ps.HandshakesSent)),
		"tracker_queries":        float64(ps.TrackerQueries),
		"gossip_sent":            float64(ps.GossipSent),
		"keepalive_evictions":    float64(ps.KeepaliveEvictions),
		"channel_switches":       float64(ps.ChannelSwitches),

		"flow_alive":    float64(o.flowLive),
		"peers_spawned": float64(o.spawned),

		"edge_served":     float64(served),
		"edge_bytes":      float64(bytes),
		"edge_shed_ratio": ratio(float64(shed), float64(served+shed)),

		"report_s":         med(plain, func(o *repOutcome) float64 { return o.report.Seconds() }),
		"unanswered_data":  float64(o.unansData),
		"unanswered_lists": float64(o.unansLists),

		"alloc_bytes_per_event": med(plain, func(o *repOutcome) float64 { return float64(o.allocBytes) / events }),
		"allocs_per_event":      med(plain, func(o *repOutcome) float64 { return float64(o.mallocs) / events }),
		"gc_cycles":             med(plain, func(o *repOutcome) float64 { return float64(o.gcCycles) }),
		"gc_pause_ms":           med(plain, func(o *repOutcome) float64 { return float64(o.gcPause) / 1e6 }),
		"heap_peak_mb":          float64(heapPeak) / (1 << 20),

		"warmup_wall_s": med(withTrace, func(o *repOutcome) float64 { return o.barrier.warmupWall.Seconds() }),
		"watch_wall_s":  med(withTrace, func(o *repOutcome) float64 { return (o.barrier.runWall - o.barrier.warmupWall).Seconds() }),

		"traced_viewer_s_per_s": tracedVPS,
		"trace_overhead":        ratio(untracedVPS, tracedVPS),
		"viewer_samples":        float64(len(o.continuity)),
	}
}
