package main

import (
	"fmt"
	"time"

	pplive "pplivesim"
	"pplivesim/internal/cdn"
	"pplivesim/internal/core"
	"pplivesim/internal/fault"
	"pplivesim/internal/isp"
	"pplivesim/internal/peer"
	"pplivesim/internal/selection"
	"pplivesim/internal/simnet"
	"pplivesim/internal/wire"
	"pplivesim/internal/workload"
)

// benchWorkers is the worker-goroutine count of every measured run (capped at
// the CPU count). The trace run adds a 1-worker run for parallel_speedup.
const benchWorkers = 2

// workloadDef is one named benchmark input. The seed passed on the command
// line derives `trajectories` scenario seeds; every end-to-end outcome metric
// pools the viewers of all of them, which keeps per-viewer percentiles of a
// quantized quantity (startup delay moves in tracker-round steps) steady
// from one --seed to the next.
type workloadDef struct {
	name         string
	trajectories int
	// scenario builds the workload for one trajectory seed. short selects the
	// reduced horizon the benchmark's own test runs; it keeps every phase of
	// the full timeline (warm-up, spike, crash) so the same code paths run.
	scenario func(seed int64, short bool) core.Scenario
	// check holds the workload-specific correctness checks on a finished
	// trajectory, beside the checks every workload gets.
	check func(o *repOutcome, sc core.Scenario) error
}

var workloads = []workloadDef{
	{name: "paper-popular", trajectories: 4, scenario: paperPopular, check: checkAmplification},
	{name: "million-flow", trajectories: 2, scenario: millionFlow, check: checkFlowSwarm},
	{name: "flash-cdn", trajectories: 3, scenario: flashCDN, check: checkEdgesServed},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// trajectorySeeds derives a workload's scenario seeds from the command-line
// seed (splitmix64 steps, so neighbouring --seed values share no trajectory).
func trajectorySeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	x := uint64(seed)
	for i := range out {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		out[i] = int64((z ^ (z >> 31)) >> 1)
	}
	return out
}

// paperPopular is the paper's own experiment on the popular channel: mixed
// fidelity, uniform random selection, churn, TELE and Mason probes, on the
// legacy 6-domain ISP partition. Its wall time goes to the per-sub-piece data
// plane (peer scheduler, eventsim timers, underlay/wire sends, capture
// matching); windows last ~0.6 ms so barrier cost is a small share.
func paperPopular(seed int64, short bool) core.Scenario {
	sc := pplive.PopularScenario(seed, 0.1)
	sc.Name = "paper-popular"
	sc.Probes = append(teleProbes(0), core.ProbeSpec{Name: "mason", ISP: isp.Foreign})
	sc.Shards = simnet.DefaultShards
	sc.ArrivalWindow, sc.WarmUp, sc.Watch = 90*time.Second, 2*time.Minute, 3*time.Minute
	if short {
		sc.ArrivalWindow, sc.WarmUp, sc.Watch = 30*time.Second, 40*time.Second, 80*time.Second
	}
	return sc
}

// millionFlow is the million-peer population (1.05 M initial flow members,
// 700 k of them TELE across 7 address-range sub-shards) at flow fidelity on
// the 12-domain scaled partition, with one full-fidelity TELE probe. It does
// almost no scheduler or wire work: its wall time is the eventsim.Group
// barrier, the simnet router flush and the FlowSwarm tick.
func millionFlow(seed int64, short bool) core.Scenario {
	sc := core.Scenario{
		Name: "million-flow",
		Seed: seed,
		Spec: workload.PopularSpec(),
		Viewers: workload.Population{
			isp.TELE:    700_000,
			isp.CNC:     200_000,
			isp.CER:     30_000,
			isp.OtherCN: 70_000,
			isp.Foreign: 50_000,
		},
		Probes:        []core.ProbeSpec{{Name: localityPrefix + "1", ISP: isp.TELE}},
		Fidelity:      peer.FidelityFlow,
		Churn:         workload.DefaultChurn(),
		Shards:        12,
		ArrivalWindow: 2 * time.Minute,
		WarmUp:        3 * time.Minute,
		Watch:         17 * time.Minute,
	}
	if short {
		sc.WarmUp, sc.Watch = time.Minute, time.Minute
	}
	return sc
}

// flashEdgeUplinkBps is each edge's uplink in flash-cdn. The default 4 MB/s
// is sized for a quarter-scale audience and would never shed at the 0.02
// scale used here; at 500 KB/s the edges shed through the spike and the
// source crash, as the quarter-scale deployment does, without collapsing
// the median viewer.
const flashEdgeUplinkBps = 500_000

// flashCDN is the two-channel switching scenario with a 10× flash crowd on
// the popular channel, two TELE edges and one CNC edge, quota:0.25 selection
// and a one-minute source crash inside the spike. Joins, announces,
// handshakes and channel switches (tracker and session state writes) run
// beside steady streaming, and the cdn, selection and fault layers all act.
func flashCDN(seed int64, short bool) core.Scenario {
	sc := pplive.MultiChannelScenario(seed, 0.02, 0.15)
	sc.Name = "flash-cdn"
	sc.Probes = append(teleProbes(0), core.ProbeSpec{Name: "unpopular-tele", ISP: isp.TELE, Channel: sc.Channels[1].Spec.Channel})
	sc.Shards = simnet.DefaultShards
	sc.Selection = selection.Spec{Kind: selection.KindQuota, MaxInterFrac: 0.25}
	sc.CDN = &cdn.Config{Placements: []cdn.Placement{
		{ISP: isp.TELE, Count: 2, UplinkBps: flashEdgeUplinkBps},
		{ISP: isp.CNC, Count: 1, UplinkBps: flashEdgeUplinkBps},
	}}
	// Full timeline: swarm forms by 90 s, spike from 2:00 over one minute,
	// source down 2:30-3:30, horizon 4:00.
	sc.ArrivalWindow, sc.WarmUp, sc.Watch = time.Minute, 90*time.Second, 150*time.Second
	spikeAt, spikeWindow, crashAfter, crashFor := 2*time.Minute, time.Minute, 30*time.Second, time.Minute
	if short {
		sc.ArrivalWindow, sc.WarmUp, sc.Watch = 20*time.Second, 30*time.Second, 60*time.Second
		spikeAt, spikeWindow, crashAfter, crashFor = 40*time.Second, 20*time.Second, 10*time.Second, 20*time.Second
	}
	sc.FlashCrowd = workload.FlashCrowd{Enabled: true, Channel: 0, At: spikeAt, Multiplier: 10, Window: spikeWindow}
	crash := spikeAt + crashAfter
	sc.Faults = &fault.Schedule{
		SourceCrashes: []fault.SourceCrash{{Channel: 0, At: crash, Recover: crash + crashFor}},
	}
	return sc
}

// localityProbes is how many TELE probes watch the first channel of the
// client-fidelity workloads. One probe's locality swings by several percent
// from seed to seed in a swarm this small; locality pools the probes' bytes.
const localityProbes = 4

// teleProbes returns the TELE probes whose pooled bytes give locality.
func teleProbes(ch wire.ChannelID) []core.ProbeSpec {
	out := make([]core.ProbeSpec, localityProbes)
	for i := range out {
		out[i] = core.ProbeSpec{Name: fmt.Sprintf("%s%d", localityPrefix, i+1), ISP: isp.TELE, Channel: ch}
	}
	return out
}

// configuredViewers is the workload's concurrent audience: every channel's
// base population, the flash-crowd spike, and the probes. Times the horizon
// it is the simulated viewer-seconds one trajectory delivers, the work unit
// of viewer_s_per_s.
func configuredViewers(sc core.Scenario) int {
	n := len(sc.Probes)
	chans := sc.Channels
	if len(chans) == 0 {
		chans = []core.ChannelSpec{{Spec: sc.Spec, Viewers: sc.Viewers}}
	}
	for i, ch := range chans {
		n += ch.Viewers.Total()
		if sc.FlashCrowd.Enabled && sc.FlashCrowd.Channel == i {
			for _, cat := range isp.All() {
				n += sc.FlashCrowd.SpikeCount(ch.Viewers[cat])
			}
		}
	}
	return n
}
