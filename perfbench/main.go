// Command perfbench is the reproduction's benchmark: it drives the
// registered experiments end to end, checks their outputs, and prints
// every metric with its unit. See README.md for the workloads, the
// metrics, and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	_ "bundler/internal/scenario" // registers the experiments
	"bundler/internal/sim"
)

// The size of one unit of each workload, and how sched-sweep's set-up
// (about 0.1 ms a build) is timed.
const (
	meshSites       = 32             // mesh-hub site count
	meshHorizon     = 2 * sim.Second // mesh-hub virtual run time
	sweepSetupBatch = 400            // sched-sweep set-up builds per timed batch
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is a run's final record: the last line of standard output.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner accumulates one run's checks, counts, and metrics.
type runner struct {
	root     string
	workload string
	seed     int64
	seconds  int
	expected map[string]map[string]string // workload → seed → digest

	attempted, failed int
	results, checked  int // units that produced a result, and how many had an expected digest
	errs              []string
	values            map[string]float64
}

func (r *runner) fail(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// checkExpected compares a unit's digest against the expected table,
// when the table covers the unit's seed, and counts the units it could
// check: the table holds seeds 0-63 and the held-out seed, and a run's
// later units run derived seeds it does not hold.
func (r *runner) checkExpected(seed int64, d string) bool {
	r.results++
	want, ok := r.expected[r.workload][fmt.Sprint(seed)]
	if !ok {
		return true
	}
	r.checked++
	if want != d {
		r.fail("result digest %s does not match the expected %s for seed %d", d, want, seed)
		return false
	}
	return true
}

func main() {
	var (
		workload = flag.String("workload", "", "mesh-hub or sched-sweep")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 40, "measurement budget per run (sets the unit count)")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end metrics")
		spread   = flag.Int("spread", 0, "run the workload this many times (seeds seed, seed+1, ...) in fresh processes and print each metric's median and IQR/median")
		genFrom  = flag.Int64("gen-digests", -1, "regenerate perfbench/digests.json for seeds gen-digests..seed")
		describe = flag.Bool("describe", false, "print the ledger (perfbench/ledger.json) and exit")
	)
	flag.Parse()
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	switch {
	case *describe:
		os.Stdout.Write(describeLedger())
		return
	case *spread > 0:
		if err := runSpread(*workload, *seed, *seconds, *trace, *spread); err != nil {
			fatal(err)
		}
		return
	case *genFrom >= 0:
		if err := genDigests(root, *genFrom, *seed); err != nil {
			fatal(err)
		}
		return
	}
	known := false
	for _, w := range workloads {
		known = known || w.Name == *workload
	}
	if !known || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("usage: perfbench --workload mesh-hub|sched-sweep --seed N --seconds S --trace 0|1"))
	}

	r := &runner{root: root, workload: *workload, seed: *seed, seconds: *seconds,
		values: make(map[string]float64)}
	if r.expected, err = readDigests(root); err != nil {
		fatal(err)
	}
	line, _ := json.Marshal(map[string]any{"host": stamp(root, *seed), "workload": *workload, "trace": *trace})
	fmt.Println(string(line))

	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		r.traced()
	} else {
		r.untraced()
	}
	out := outcome{Correct: len(r.errs) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metric, len(defs))}
	if !out.Correct {
		out.Failed = out.Attempted
	}
	if out.Attempted < 1 {
		out.Attempted, out.Failed, out.Correct = 1, 1, false
	}
	fmt.Printf("digest check: %d of %d units had an expected digest for their seed\n", r.checked, r.results)
	for _, e := range r.errs {
		fmt.Println("CHECK FAILED:", e)
	}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			fatal(fmt.Errorf("metric %s was not measured", d.Name))
		}
		if !out.Correct && (math.IsNaN(v) || math.IsInf(v, 0)) {
			v = 0 // a failed run may have measured nothing; its record must still print
		}
		out.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		fmt.Printf("%-34s %16.6g %s\n", d.Name, v, d.Unit)
	}
	fmt.Printf("%-34s %16.6g ratio\n", "fail_frac", float64(out.Failed)/float64(out.Attempted))
	b, err := json.Marshal(out)
	if err != nil {
		fatal(fmt.Errorf("encode result: %w (a metric is not finite)", err))
	}
	fmt.Println(string(b))
	if !out.Correct {
		os.Exit(1)
	}
}

func (r *runner) untraced() {
	switch r.workload {
	case "mesh-hub":
		r.mesh()
	case "sched-sweep":
		r.sweep()
	}
	r.values["peak_rss_mb"] = peakRSSMB()
}

func (r *runner) traced() {
	switch r.workload {
	case "mesh-hub":
		r.meshTraced()
	case "sched-sweep":
		r.sweepTraced()
	}
	// Layers the workload's traced run does not reach report 0.
	for _, d := range perLayer {
		if _, ok := r.values[d.Name]; !ok {
			r.values[d.Name] = 0
		}
	}
}

// units records the per-unit end-to-end samples shared by every
// workload: wall and CPU time, packets, and allocations.
type units struct {
	wall, cpu, pps, allocs, bytes []float64
}

func (u *units) add(p phase) {
	u.wall = append(u.wall, p.wall.Seconds())
	u.cpu = append(u.cpu, p.cpu.Seconds())
	pkts := float64(p.pkts)
	u.pps = append(u.pps, pkts/p.wall.Seconds())
	u.allocs = append(u.allocs, float64(p.mallocs)/pkts)
	u.bytes = append(u.bytes, float64(p.bytes)/pkts)
}

func (r *runner) report(u *units, setup []float64) {
	r.values["setup_s"] = median(setup)
	r.values["wall_s"] = median(u.wall)
	r.values["cpu_s"] = median(u.cpu)
	r.values["pkts_per_s"] = median(u.pps)
	r.values["allocs_per_pkt"] = median(u.allocs)
	r.values["alloc_bytes_per_pkt"] = median(u.bytes)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// readDigests loads the expected result digests kept beside the
// benchmark.
func readDigests(root string) (map[string]map[string]string, error) {
	b, err := os.ReadFile(digestsPath(root))
	if err != nil {
		return nil, fmt.Errorf("expected digests: %w", err)
	}
	var m map[string]map[string]string
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("expected digests: %w", err)
	}
	return m, nil
}

func digestsPath(root string) string { return root + "/perfbench/digests.json" }
