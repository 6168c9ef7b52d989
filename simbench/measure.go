package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"time"

	"pplivesim/internal/analysis"
	"pplivesim/internal/core"
	"pplivesim/internal/isp"
	"pplivesim/internal/peer"
)

// fingerprint identifies a trajectory: equal fingerprints across repeats,
// worker counts and traced/untraced runs are the determinism check.
type fingerprint struct {
	Events    uint64
	Delivered uint64
	DropLoss  uint64
	DropQueue uint64
	DropNoHst uint64
	Reports   uint64 // FNV-64a of every probe report's JSON, in probe order
}

func (f fingerprint) String() string {
	return fmt.Sprintf("events=%d net=%d/%d/%d/%d reports=%016x",
		f.Events, f.Delivered, f.DropLoss, f.DropQueue, f.DropNoHst, f.Reports)
}

// peerTotals sums the protocol counters of every full-protocol viewer.
type peerTotals struct {
	stats     peer.Stats
	received  uint64
	dups      uint64
	deadlines uint64
	misses    uint64
}

func (t *peerTotals) add(c *peer.Client) {
	s := c.Stats()
	t.stats.DataRequestsSent += s.DataRequestsSent
	t.stats.DataRepliesGot += s.DataRepliesGot
	t.stats.RequestTimeouts += s.RequestTimeouts
	t.stats.DataBusies += s.DataBusies
	t.stats.HandshakesSent += s.HandshakesSent
	t.stats.HandshakesAccepted += s.HandshakesAccepted
	t.stats.TrackerQueries += s.TrackerQueries
	t.stats.GossipSent += s.GossipSent
	t.stats.KeepaliveEvictions += s.KeepaliveEvictions
	t.stats.ChannelSwitches += s.ChannelSwitches
	b := c.BufferStats()
	t.received += b.Received
	t.dups += b.Duplicates
	t.deadlines += b.PlayedOK + b.PlayedMiss
	t.misses += b.PlayedMiss
}

// repOutcome is everything one simulated trajectory yields.
type repOutcome struct {
	seed int64
	work float64 // configured viewers × horizon, in viewer-seconds

	setup  time.Duration // core.Build
	run    time.Duration // Sim.Run start until every probe report is final
	report time.Duration // the report-finalization share of run

	fp         fingerprint
	continuity []float64 // per viewer that reached a playback deadline
	startup    []float64 // per viewer that reached steady state, seconds

	// Tallies behind locality (downloaded bytes of the localityPrefix
	// probes), its amplification check (addresses those probes were
	// offered) and swarm_locality.
	localSame, localTotal uint64
	offerSame, offerTotal int
	swarmSame, swarmTotal uint64

	peers                 peerTotals
	unansData, unansLists int // summed over probe reports
	spawned               int
	flowLive              int
	edges                 []core.EdgeStat

	// Go runtime deltas across Sim.Run.
	mallocs, allocBytes, gcCycles uint64
	gcPause                       time.Duration
	heapAfterBuild                uint64

	elapsed time.Duration
	barrier *barrierProbe // nil unless traced
}

// runTrajectory builds and runs one trajectory of w and collects its
// outcome. With a non-nil tracer it also records spans and the barrier
// probe's per-window samples.
func runTrajectory(w workloadDef, seed int64, short bool, workers int, tr *tracer) (*repOutcome, error) {
	sc := w.scenario(seed, short)
	sc.Workers = workers
	o := &repOutcome{
		seed: seed,
		work: float64(configuredViewers(sc)) * (sc.WarmUp + sc.Watch).Seconds(),
	}
	root := tr.begin(fmt.Sprintf("trajectory %s seed=%d workers=%d", w.name, seed, workers), 0)
	defer tr.end(root)

	runtime.GC()
	bspan := tr.begin("core.Build", root)
	t0 := time.Now()
	sim, err := core.Build(sc)
	o.setup = time.Since(t0)
	tr.end(bspan)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", w.name, err)
	}
	var probe *barrierProbe
	if tr != nil {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		o.heapAfterBuild = ms.HeapAlloc
		probe = newBarrierProbe(sim.World(), sc.WarmUp, tr)
		sim.World().OnBarrier(probe.onBarrier)
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rspan := tr.begin("Sim.Run", root)
	probe.start(rspan)
	t1 := time.Now()
	res, err := sim.Run()
	tRun := time.Now()
	probe.finish()
	tr.end(rspan)
	if err != nil {
		return nil, err
	}
	aspan := tr.begin("ProbeReport", root)
	reports := make([]*analysis.Report, len(res.Probes))
	for i := range res.Probes {
		if reports[i], err = res.ProbeReport(i); err != nil {
			return nil, err
		}
	}
	t2 := time.Now()
	tr.end(aspan)
	runtime.ReadMemStats(&ms1)
	o.run = t2.Sub(t1)
	o.report = t2.Sub(tRun)
	o.mallocs = ms1.Mallocs - ms0.Mallocs
	o.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	o.gcCycles = uint64(ms1.NumGC - ms0.NumGC)
	o.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	o.elapsed = res.Elapsed
	o.barrier = probe

	h := fnv.New64a()
	for i, rep := range reports {
		o.addReport(res.Probes[i].Name, res.Probes[i].ISP, rep, sc.Fidelity == peer.FidelityFlow)
		b, err := json.Marshal(rep)
		if err != nil {
			return nil, fmt.Errorf("encode report %q: %w", res.Probes[i].Name, err)
		}
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	o.fp = fingerprint{Events: res.EventsProcessed, Reports: h.Sum64()}
	o.fp.Delivered, o.fp.DropLoss, o.fp.DropQueue, o.fp.DropNoHst = sim.World().NetStats()

	viewers := sim.BackgroundClients()
	for i := range res.Probes {
		viewers = append(viewers, res.Probes[i].Client)
	}
	for _, c := range viewers {
		o.peers.add(c)
		if b := c.BufferStats(); b.PlayedOK+b.PlayedMiss > 0 {
			o.continuity = append(o.continuity, b.Continuity())
		}
		if d, ok := c.TimeToSteady(); ok {
			o.startup = append(o.startup, d.Seconds())
		}
	}
	o.spawned = res.PeersSpawned
	o.flowLive = sim.FlowAlive()
	o.edges = res.EdgeStats
	if sc.Fidelity == peer.FidelityFlow {
		for _, ft := range res.FlowTraffic {
			if ft.ISP != isp.TELE || ft.Channel != res.Channels[0].Spec.Channel {
				continue
			}
			for src, b := range ft.Aggregate.BytesSnapshot() {
				o.swarmTotal += b
				if src == isp.TELE {
					o.swarmSame += b
				}
			}
		}
	}
	return o, o.check(sc, w)
}

// localityPrefix names the TELE probes on the first channel whose pooled
// bytes are the paper's Fig. 2(c) locality.
const localityPrefix = "tele-"

// addReport folds one probe's finalized report into the locality tallies.
// At client fidelity
// swarm_locality pools every probe's own-ISP bytes (flow fidelity takes it
// from the TELE flow swarm instead, in runTrajectory).
func (o *repOutcome) addReport(name string, cat isp.ISP, rep *analysis.Report, flow bool) {
	var total uint64
	for _, b := range rep.BytesByISP {
		total += b
	}
	same := rep.BytesByISP[cat]
	if strings.HasPrefix(name, localityPrefix) {
		o.localSame += same
		o.localTotal += total
		for c, n := range rep.ReturnedByISP {
			o.offerTotal += n
			if c == cat {
				o.offerSame += n
			}
		}
	}
	if !flow {
		o.swarmSame += same
		o.swarmTotal += total
	}
	o.unansData += rep.UnansweredData
	o.unansLists += rep.UnansweredLists
}

// check applies the checks every trajectory must pass, then the workload's
// own.
func (o *repOutcome) check(sc core.Scenario, w workloadDef) error {
	if horizon := sc.WarmUp + sc.Watch; o.elapsed != horizon {
		return fmt.Errorf("%s seed %d: elapsed %v, want horizon %v", w.name, o.seed, o.elapsed, horizon)
	}
	for _, c := range o.continuity {
		if c < 0 || c > 1 {
			return fmt.Errorf("%s seed %d: continuity %v outside [0,1]", w.name, o.seed, c)
		}
	}
	if len(o.continuity) == 0 || len(o.startup) == 0 || o.localTotal == 0 || o.swarmTotal == 0 {
		return fmt.Errorf("%s seed %d: empty outcome (viewers %d/%d, tele bytes %d, swarm bytes %d)",
			w.name, o.seed, len(o.continuity), len(o.startup), o.localTotal, o.swarmTotal)
	}
	return w.check(o, sc)
}

// checkAmplification is the paper's finding: the TELE probes' traffic
// locality exceeds the locality of the addresses they were offered.
func checkAmplification(o *repOutcome, _ core.Scenario) error {
	traffic := ratio(float64(o.localSame), float64(o.localTotal))
	potential := ratio(float64(o.offerSame), float64(o.offerTotal))
	if !(traffic > potential) {
		return fmt.Errorf("seed %d: TELE traffic locality %.4f does not exceed potential locality %.4f", o.seed, traffic, potential)
	}
	return nil
}

// checkFlowSwarm requires the million-member population to be alive at the
// horizon (churn replaces departures).
func checkFlowSwarm(o *repOutcome, sc core.Scenario) error {
	initial := sc.Viewers.Total()
	if o.flowLive < initial*9/10 {
		return fmt.Errorf("seed %d: %d flow members alive at the horizon, want >= 90%% of %d", o.seed, o.flowLive, initial)
	}
	return nil
}

// checkEdgesServed requires the edges to have served during the spike and
// the source crash.
func checkEdgesServed(o *repOutcome, _ core.Scenario) error {
	var served uint64
	for _, e := range o.edges {
		served += e.Served
	}
	if served == 0 {
		return fmt.Errorf("seed %d: no CDN edge served a request", o.seed)
	}
	return nil
}
