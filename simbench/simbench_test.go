package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// TestWorkloadsWorkerInvariant runs every workload at its reduced horizon at
// one and two workers: the trajectories (flash-crowd spike draws, fault and
// flow-swarm schedules included) must be identical.
func TestWorkloadsWorkerInvariant(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			seed := trajectorySeeds(3, 1)[0]
			one, err := runTrajectory(w, seed, true, 1, nil)
			if err != nil {
				t.Fatalf("1 worker: %v", err)
			}
			two, err := runTrajectory(w, seed, true, 2, nil)
			if err != nil {
				t.Fatalf("2 workers: %v", err)
			}
			if one.fp != two.fp {
				t.Errorf("fingerprint differs across workers:\n  1: %v\n  2: %v", one.fp, two.fp)
			}
		})
	}
}

// TestEveryMetricPrinted runs the measured and the traced mode of every
// workload at its reduced horizon and requires each to pass its checks and
// print exactly the metrics BENCHMARK.json declares, with their units.
func TestEveryMetricPrinted(t *testing.T) {
	decl := readBenchmarkJSON(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(options{
				workload: w,
				seed:     5,
				short:    true,
				trace:    trace,
				workers:  2,
				traceDir: t.TempDir(),
				log:      io.Discard,
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := decl.EndToEnd
			if trace {
				want = decl.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json declares %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %q", w.name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesDefinitions keeps BENCHMARK.json and the metric
// and workload tables in this package in step.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	decl := readBenchmarkJSON(t)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark defines %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, decl.Workloads[i].Name, w.name)
		}
	}
	for _, c := range []struct {
		kind string
		decl []declMetric
		defs []metricDef
	}{{"end_to_end", decl.EndToEnd, endToEnd}, {"per_layer", decl.PerLayer, perLayer}} {
		if len(c.decl) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark defines %d", c.kind, len(c.decl), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			m := c.decl[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", c.kind, i, m, d)
			}
		}
	}
}

type declMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declMetric `json:"end_to_end"`
	PerLayer []declMetric `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return decl
}
