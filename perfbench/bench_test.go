package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"bundler/internal/exp"
	"bundler/internal/scenario"
	"bundler/internal/sim"
)

// tinyGrid is a three-cell slice of the benchmark's megasweep grid (one
// cell per scheduler mode) over a shorter horizon.
const tinyGrid = "mode=fifo,sp,wfq;baselatency=10ms;load=10e6;delay=24ms;requests=1048576;horizon=300ms"

// unitDigests runs every workload's unit, and the traced dumbbell wiring
// the sched-sweep probe cells use, at a tiny scale and returns their
// digests, failing the test on any broken check — including the traced
// wirings, which must reproduce their untraced twins exactly.
func unitDigests(t *testing.T, seed int64) map[string]string {
	t.Helper()
	out := make(map[string]string)

	const requests = 300
	res, err := runFig9(seed, requests)
	if err != nil {
		t.Fatalf("fig9: %v", err)
	}
	obs := newDumbbellObs()
	traced := tracedFig9(newTracer(), obs, seed, requests)
	out["fig9"] = digest(canonical(res))
	if got := digest(canonical(traced)); got != out["fig9"] {
		t.Errorf("seed %d: traced fig9 digest %s, registered fig9 %s", seed, got, out["fig9"])
	}
	if obs.completed != 4*requests {
		t.Errorf("seed %d: traced fig9 completed %d of %d flows", seed, obs.completed, 4*requests)
	}

	o := meshOptions(seed, 4, 500*sim.Millisecond, 0)
	m := scenario.NewMesh(o)
	m.Run()
	if _, err := meshCheck(m); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
	out["mesh-hub"] = digest(canonical(meshResult(m)))
	tm := tracedMesh(newTracer(), &meshObs{pending: newHist(), sendboxQdelayMs: newHist()}, o)
	if got := digest(canonical(meshResult(tm))); got != out["mesh-hub"] {
		t.Errorf("seed %d: traced mesh digest %s, untraced %s", seed, got, out["mesh-hub"])
	}

	e, g, err := loadSweep(tinyGrid)
	if err != nil {
		t.Fatalf("load sweep: %v", err)
	}
	g.Seeds = []int64{seed}
	sp, err := runSweepPass(e, g, t.TempDir(), 2)
	if err != nil {
		t.Fatalf("seed %d: sweep pass: %v", seed, err)
	}
	if sp.hitFrac() != 1 || sp.failedCells != 0 {
		t.Errorf("seed %d: warm hit fraction %v, %d failed cells", seed, sp.hitFrac(), sp.failedCells)
	}
	out["sched-sweep"] = digest(sp.out)
	return out
}

// TestSeedsReproduce runs both workloads and the traced fig9 on a
// development seed and the held-out seed, twice each: a seed must reproduce its digests
// exactly, and the two seeds must give different ones.
func TestSeedsReproduce(t *testing.T) {
	t.Chdir("..") // the workloads read examples/configs from the tree root
	dev := unitDigests(t, 1)
	if again := unitDigests(t, 1); !equalMaps(dev, again) {
		t.Errorf("seed 1 digests changed between runs:\n%v\n%v", dev, again)
	}
	held := unitDigests(t, heldOutSeed)
	if again := unitDigests(t, heldOutSeed); !equalMaps(held, again) {
		t.Errorf("held-out seed digests changed between runs:\n%v\n%v", held, again)
	}
	for w, d := range dev {
		if held[w] == d {
			t.Errorf("%s: seeds 1 and %d give the same digest %s", w, heldOutSeed, d)
		}
	}
}

// TestFig9Direction checks the paper's direction on the development and
// held-out seeds at the Figure 9 probe's scale: Bundler with SFQ beats
// the status quo.
func TestFig9Direction(t *testing.T) {
	for _, seed := range []int64{1, heldOutSeed} {
		res, err := runFig9(seed, probeFig9Requests)
		if err != nil {
			t.Fatalf("fig9: %v", err)
		}
		if err := fig9Check(res); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func equalMaps(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json and ledger.json to
// the metric and workload tables the program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	var bench struct {
		Workloads []workloadDef
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json lists %d workloads, want at least 2", len(bench.Workloads))
	}
	for _, bw := range bench.Workloads {
		found := false
		for _, w := range workloads {
			found = found || bw == w
		}
		if !found {
			t.Errorf("BENCHMARK.json workload %+v is not in the program's table", bw)
		}
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			w := want[i]
			w.Moves = ""
			if got[i] != w {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %+v", kind, i, got[i], w)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)

	ledger, err := os.ReadFile("ledger.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := describeLedger(); !bytes.Equal(ledger, want) {
		t.Errorf("ledger.json is stale; regenerate it with --describe")
	}
}

// TestQuartilesMatchPython checks the spread report's quartiles against
// values statistics.quantiles(data, n=4) returns.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(tc.data)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.data, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

// TestTracerSelfTimes checks that nested spans' self times partition the
// outermost span exactly.
func TestTracerSelfTimes(t *testing.T) {
	tr := newTracer()
	root, a, b := tr.kind("bench.run", true, false), tr.kind("sim.run", false, false), tr.kind("tcp.ack", false, true)
	tr.begin(root)
	for i := 0; i < 100; i++ {
		tr.span(a, func() {
			tr.span(b, func() {})
		})
	}
	tr.end()
	var sum int64
	for _, ks := range tr.kinds {
		sum += ks.self
	}
	if total := tr.stat("bench.run").total; sum != total {
		t.Errorf("self times sum to %d ns, root span lasted %d ns", sum, total)
	}
	if n := tr.stat("tcp.ack").n; n != 100 {
		t.Errorf("tcp.ack spans = %d, want 100", n)
	}
}

// TestTimedExpForwardsKeys checks that the sweep's timing decorator
// leaves run-store keys unchanged.
func TestTimedExpForwardsKeys(t *testing.T) {
	t.Chdir("..")
	e, _, err := loadSweep(tinyGrid)
	if err != nil {
		t.Fatal(err)
	}
	d := timedExp{Experiment: e, cells: &timing{}}
	if d.SourceHash() == "" || d.SourceHash() != e.(exp.SourceHasher).SourceHash() {
		t.Errorf("decorated source hash %q, config's %q", d.SourceHash(), e.(exp.SourceHasher).SourceHash())
	}
}
