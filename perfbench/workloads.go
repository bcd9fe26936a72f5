package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"bundler/internal/exp"
	"bundler/internal/pkt"
	"bundler/internal/scenario"
	"bundler/internal/sim"
	"bundler/internal/sim/shard"
)

// unitSeed is the simulation seed of a run's i-th unit. Unit 0 runs the
// workload seed itself (the one the expected-digest table is keyed by);
// later units run seeds derived from it, so a run's medians cover many
// independent draws of the heavy-tailed web workload instead of hinging
// on one.
func (r *runner) unitSeed(i int) int64 {
	if i == 0 {
		return r.seed
	}
	return shard.MixSeed(r.seed, i)
}

// checkLive applies the packet-pool conservation rule to a finished
// mesh, as the repository's invariant tests do: the live count
// may have grown by what the abandoned engines still held in flight, but
// never shrunk (a release of a packet the releaser did not own) and never
// by more than inFlightBound (a leak on a release path). A sweep pass is
// 144 runs whose engines all end with full queues at their horizon, so
// its passes are held to their byte-exact outputs instead.
func (r *runner) checkLive(base int64) bool {
	const inFlightBound = 200_000
	delta := pkt.Live() - base
	if delta < 0 || delta > inFlightBound {
		r.fail("packet pool live count moved by %d over one unit", delta)
		return false
	}
	return true
}

// timeSetup measures a set-up too short to time one build at a time: it
// times a batch of n builds and returns their mean in seconds.
func timeSetup(n int, build func() error) (float64, error) {
	start := time.Now()
	for j := 0; j < n; j++ {
		if err := build(); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds() / float64(n), nil
}

// units is how many units a run measures for its budget, budget/perUnit
// and at least 3. The count depends only on the budget, never on how fast
// units run, so a run's inputs are fixed by its seed and budget alone. On
// the 2-vCPU Xeon host the bounds were set on, a mesh takes 1.5-1.9 s and
// a sweep pass 2.4-3.4 s.
func (r *runner) units(perUnit float64) int {
	return max(3, int(float64(r.seconds)/perUnit))
}

func (r *runner) mesh() {
	var u units
	var setup []float64
	for i := 0; i < r.units(2); i++ {
		seed := r.unitSeed(i)
		runtime.GC()
		base := pkt.Live()
		start := time.Now()
		m := scenario.NewMesh(meshOptions(seed, meshSites, meshHorizon, 0))
		setup = append(setup, time.Since(start).Seconds())
		a := read()
		m.Run()
		p := since(a)
		completed, err := meshCheck(m)
		r.attempted += completed
		ok := err == nil
		if !ok {
			r.fail("mesh seed %d: %v", seed, err)
		}
		ok = r.checkExpected(seed, digest(canonical(meshResult(m)))) && ok
		ok = r.checkLive(base) && ok
		if !ok {
			r.failed += completed
		}
		u.add(p)
	}
	r.report(&u, setup)
}

// storeDir is a fresh run-store directory inside the checkout's build
// area, unique to this process and pass.
func (r *runner) storeDir(pass int) string {
	return filepath.Join(r.root, ".bench_build", "runstore", fmt.Sprintf("%d-%d", os.Getpid(), pass))
}

func (r *runner) sweep() {
	var e exp.Experiment
	var g exp.Grid
	load := func() error {
		var err error
		e, g, err = loadSweep(sweepGrid)
		return err
	}
	var u units
	var setup []float64
	err := load() // a warm-up, not timed
	for i := 0; err == nil && i < r.units(3); i++ {
		// A timed batch of set-up builds before every pass, so the
		// set-up samples span the run as the passes do.
		var s float64
		if s, err = timeSetup(sweepSetupBatch, load); err != nil {
			break
		}
		setup = append(setup, s)
		g.Seeds = []int64{r.unitSeed(i)}
		runtime.GC()
		a := read()
		r.sweepPass(e, g, i)
		u.add(since(a))
	}
	if err != nil {
		r.fail("load %s: %v", megasweepConfig, err)
		r.attempted, r.failed = 1, 1
		return
	}
	r.report(&u, setup)
}

// sweepPass runs and checks one cold + warm pass.
func (r *runner) sweepPass(e exp.Experiment, g exp.Grid, pass int) (*sweepPass, bool) {
	dir := r.storeDir(pass)
	sp, err := runSweepPass(e, g, dir, runtime.NumCPU())
	os.RemoveAll(dir)
	cells := g.Size()
	r.attempted += cells
	if err != nil {
		r.fail("sched-sweep: %v", err)
		r.failed += cells
		return sp, false
	}
	r.failed += sp.failedCells
	if !r.checkExpected(g.Seeds[0], digest(sp.out)) {
		r.failed += cells - sp.failedCells
		return sp, false
	}
	return sp, true
}

// loadSweep is the sched-sweep set-up: load and validate the megasweep
// config, register it, and parse the grid.
func loadSweep(grid string) (exp.Experiment, exp.Grid, error) {
	e, err := loadMegasweep()
	if err != nil {
		return nil, exp.Grid{}, err
	}
	g, err := exp.ParseGrid(grid)
	return e, g, err
}

// gcReading brackets the runtime's own accounting for the traced ledger.
type gcReading struct {
	gcCPU, totalCPU float64
	pauseNs         uint64
}

func readGC() gcReading {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcReading{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), pauseNs: ms.PauseTotalNs}
}

// gcLedger reports the runtime rows over a traced phase of n units.
func (r *runner) gcLedger(a gcReading, n int, heapPeak uint64) {
	b := readGC()
	frac := 0.0
	if d := b.totalCPU - a.totalCPU; d > 0 {
		frac = (b.gcCPU - a.gcCPU) / d
	}
	r.values["runtime.gc_cpu_frac"] = frac
	r.values["runtime.gc_pause_ms"] = float64(b.pauseNs-a.pauseNs) / 1e6 / float64(n)
	r.values["runtime.heap_peak_mb"] = float64(heapPeak) / (1 << 20)
}

// spanLedger reports the trace rows: wall per unit, each layer's self
// time per unit, and the time no program layer's span covered. Every
// span opens under a bench.run root, so the layers' self times plus
// trace.unattributed_ms make up trace.wall_ms by construction
// (TestTracerSelfTimes pins the tracer's bookkeeping).
func (r *runner) spanLedger(t *Tracer, n int, tracedWallMs, untracedWallMs []float64) {
	root := t.stat("bench.run")
	var program int64
	for _, ks := range t.kinds {
		if ks.layer != "bench" {
			program += ks.self
		}
	}
	per := func(ns int64) float64 { return float64(ns) / 1e6 / float64(n) }
	for _, layer := range []string{"sim", "tcp", "netem", "qdisc", "bundle", "workload", "scenario", "shard", "exp", "topo"} {
		r.values[layer+".self_ms"] = per(t.layerSelf(layer))
	}
	r.values["trace.wall_ms"] = per(root.total)
	r.values["trace.unattributed_ms"] = per(root.total - program)
	r.values["trace.overhead_frac"] = median(tracedWallMs)/median(untracedWallMs) - 1
	header := map[string]any{"host": stamp(r.root, r.seed), "workload": r.workload}
	if err := t.writeLog(filepath.Join(r.root, ".bench_build", "spans"),
		fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed), header); err != nil {
		r.fail("write span log: %v", err)
	}
}

// dumbbellLedger reports the rows the traced dumbbell wiring measures.
func (r *runner) dumbbellLedger(t *Tracer, obs *dumbbellObs, pkts int64) {
	v := r.values
	fp := float64(pkts)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	v["sim.events_per_pkt"] = ratio(float64(t.events), fp)
	v["sim.self_ns_per_event"] = ratio(float64(t.layerSelf("sim")), float64(t.events))
	v["sim.pending_p50"] = obs.pending.quantile(0.5)
	v["sim.pending_max"] = float64(obs.pendingMax)
	ack := t.stat("tcp.ack")
	v["tcp.ack_self_ns_p50"] = ack.hist.quantile(0.5)
	v["tcp.ack_self_ns_p99"] = ack.hist.quantile(0.99)
	rcv := t.stat("tcp.rcv")
	v["tcp.rcv_self_ns_per_pkt"] = ratio(float64(rcv.self), float64(rcv.n))
	v["tcp.sack_blocks_per_ack"] = ratio(float64(obs.sackBlocks), float64(obs.ackPkts))
	v["tcp.retx_frac"] = ratio(float64(obs.retxPkts), float64(obs.dataPkts))
	v["netem.link_self_ns_per_pkt"] = ratio(float64(t.stat("netem.link").self), fp)
	v["netem.demux_self_ns_per_pkt"] = ratio(float64(t.stat("netem.demux").self), fp)
	v["netem.bottleneck_qdelay_ms_p50"] = obs.bnQdelayMs.quantile(0.5)
	v["netem.bottleneck_qdelay_ms_p99"] = obs.bnQdelayMs.quantile(0.99)
	v["netem.drop_frac"] = ratio(float64(obs.bnDrops), float64(obs.bnArrivals))
	for _, d := range []string{"sfq", "fifo", "wfq", "sp"} {
		v["qdisc."+d+".enq_ns_p50"] = t.stat("qdisc." + d + ".enq").hist.quantile(0.5)
		v["qdisc."+d+".deq_ns_p50"] = t.stat("qdisc." + d + ".deq").hist.quantile(0.5)
	}
	v["qdisc.sendbox_depth_p99"] = obs.sendboxDepth.quantile(0.99)
	v["bundle.sendbox_self_ns_per_pkt"] = ratio(float64(t.stat("bundle.sendbox").self), fp)
	v["bundle.tick_self_us_p50"] = t.stat("bundle.tick").hist.quantile(0.5) / 1e3
	v["bundle.ctl_pkts_per_kpkt"] = ratio(1e3*float64(obs.ctlPkts), fp)
	v["bundle.sendbox_qdelay_ms_p50"] = obs.sendboxQdelayMs.quantile(0.5)
	v["pkt.live_max"] = float64(obs.liveMax)
}

func (r *runner) meshTraced() {
	t := newTracer()
	obs := &meshObs{pending: newHist(), sendboxQdelayMs: newHist()}
	kRoot := t.kind("bench.run", true, false)
	var untracedMs, untracedRunMs, tracedMs, serialMs []float64
	gc := readGC()
	units := max(2, r.seconds/7) // untraced, serial, and traced meshes take about 7 s
	for i := 0; i < units; i++ {
		seed := r.unitSeed(i)
		o := meshOptions(seed, meshSites, meshHorizon, 0)
		// The untraced twin is timed from NewMesh on, as the traced
		// mesh is, so trace.overhead_frac compares like with like;
		// shard.parallel_eff compares Run alone.
		runtime.GC()
		start := time.Now()
		m := scenario.NewMesh(o)
		runStart := time.Now()
		m.Run()
		untracedRun := time.Since(runStart)
		untraced := time.Since(start)
		want := digest(canonical(meshResult(m)))

		runtime.GC()
		m = scenario.NewMesh(meshOptions(seed, meshSites, meshHorizon, 1))
		start = time.Now()
		m.Run()
		serial := time.Since(start)

		runtime.GC()
		t.run++
		start = time.Now()
		t.begin(kRoot)
		m = tracedMesh(t, obs, o)
		t.end()
		traced := time.Since(start)
		completed, err := meshCheck(m)
		r.attempted += completed
		ok := err == nil
		if !ok {
			r.fail("mesh seed %d: %v", seed, err)
		}
		if got := digest(canonical(meshResult(m))); got != want {
			r.fail("traced mesh seed %d digest %s differs from the untraced run's %s", seed, got, want)
			ok = false
		}
		ok = r.checkExpected(seed, want) && ok
		if !ok {
			r.failed += completed
		}
		untracedMs = append(untracedMs, untraced.Seconds()*1e3)
		untracedRunMs = append(untracedRunMs, untracedRun.Seconds()*1e3)
		serialMs = append(serialMs, serial.Seconds()*1e3)
		tracedMs = append(tracedMs, traced.Seconds()*1e3)
	}
	v := r.values
	r.gcLedger(gc, units, obs.heapPeak)
	v["sim.pending_p50"] = obs.pending.quantile(0.5)
	v["sim.pending_max"] = float64(obs.pendingMax)
	v["bundle.sendbox_qdelay_ms_p50"] = obs.sendboxQdelayMs.quantile(0.5)
	v["pkt.live_max"] = float64(obs.liveMax)
	v["scenario.build_ms"] = t.stat("scenario.build").hist.quantile(0.5) / 1e6
	v["shard.parallel_eff"] = median(serialMs) / (median(untracedRunMs) * float64(obs.shards))
	if obs.pkts > 0 {
		v["shard.xfer_per_pkt"] = float64(obs.transferred) / float64(obs.pkts)
	}
	r.spanLedger(t, units, tracedMs, untracedMs)
}

// probeScheds are the sendbox schedulers the sched-sweep traced run
// times one by one: megasweep's three modes over its two classes
// (interactive on port 8443 at weight 4, bulk on port 80).
var probeScheds = []string{"fifo", "sp:8443/80", "wfq:8443=4/80=1"}

// probeFig9Requests is the size of the Figure 9 probe: large enough for
// the status quo's bottleneck queue to build and overflow, so losses,
// SACK recovery and a standing sendbox queue show in the ledger, and the
// paper's direction shows in the result (below a few thousand requests
// the status quo never queues).
const probeFig9Requests = 15000

func (r *runner) sweepTraced() {
	t := newTracer()
	kRoot := t.kind("bench.run", true, false)
	kLoad := t.kind("topo.load", true, true)
	kSweep := t.kind("exp.sweep", true, false)
	e, g, err := loadSweep(sweepGrid)
	if err != nil {
		r.fail("load %s: %v", megasweepConfig, err)
		r.attempted, r.failed = 1, 1
		return
	}
	var untracedMs, tracedMs, cells, busy, tail, saves, loads, hit, bytesPerCell, workCons []float64
	var heapPeak uint64
	gc := readGC()
	units := 0
	for i := 0; i < max(2, r.seconds/7); i++ { // an untraced and a traced pass take about 7 s
		seed := []int64{r.unitSeed(i)}
		var untraced, traced time.Duration
		var sp *sweepPass
		var ok bool
		plain := func() {
			g.Seeds = seed
			runtime.GC()
			start := time.Now()
			r.sweepPass(e, g, 2*i)
			untraced = time.Since(start)
		}
		spanned := func() {
			runtime.GC()
			t.run++
			start := time.Now()
			t.begin(kRoot)
			t.span(kLoad, func() { e, g, err = loadSweep(sweepGrid) })
			g.Seeds = seed
			t.span(kSweep, func() { sp, ok = r.sweepPass(e, g, 2*i+1) })
			t.end()
			traced = time.Since(start)
		}
		// The spans here are coarse, so the two passes cost nearly the
		// same; alternating which runs first keeps an order effect out of
		// trace.overhead_frac.
		if i%2 == 0 {
			plain()
			spanned()
		} else {
			spanned()
			plain()
		}
		if err != nil {
			r.fail("load %s: %v", megasweepConfig, err)
			return
		}
		if !ok {
			continue
		}
		units++
		untracedMs = append(untracedMs, untraced.Seconds()*1e3)
		tracedMs = append(tracedMs, traced.Seconds()*1e3)
		var cellMs float64
		for _, c := range sp.cells.ms {
			cellMs += c
		}
		cells = append(cells, sp.cells.ms...)
		busy = append(busy, cellMs/(float64(sp.parallel)*sp.cold.Seconds()*1e3))
		tail = append(tail, sp.tailIdleMs())
		saves = append(saves, sp.cache.save.ms...)
		loads = append(loads, sp.cache.load.ms...)
		hit = append(hit, sp.hitFrac())
		bytesPerCell = append(bytesPerCell, float64(sp.storeBytes)/float64(g.Size()))
		workCons = append(workCons, sp.workConsMin)
		heapPeak = max(heapPeak, sp.heapPeak)
	}
	v := r.values

	// Probe cells, so each layer's per-operation costs are measured
	// where they run: one traced two-class dumbbell per megasweep
	// scheduler, then Figure 9's four variants (Bundler with SFQ, and
	// SFQ in the network) through the same traced wiring, which must
	// reproduce the registered fig9's result. Their spans sit under the
	// root like the sweep's. Every probe runs its engine dry once its
	// flows are done, so the packet pool's live count must come back
	// exactly.
	want, err := runFig9(r.seed, probeFig9Requests)
	if err != nil {
		r.fail("fig9 probe: %v", err)
		return
	}
	obs := newDumbbellObs()
	runtime.GC()
	gets := pkt.Stats().Gets
	live := pkt.Live()
	for _, sched := range probeScheds {
		t.run++
		t.begin(kRoot)
		runTracedFCT(t, obs, fctSpec{seed: r.seed, mode: "bundler", sched: sched, horizon: 45 * sim.Second,
			classes: []webClass{{port: 8443, offered: 10e6, requests: 400}, {port: 80, offered: 60e6, requests: 400}}})
		t.end()
	}
	t.run++
	t.begin(kRoot)
	got := tracedFig9(t, obs, r.seed, probeFig9Requests)
	t.end()
	if dw, dg := digest(canonical(want)), digest(canonical(got)); dw != dg {
		r.fail("traced fig9 probe digest %s differs from the registered fig9's %s: the trace measured a different program", dg, dw)
	}
	if err := fig9Check(got); err != nil {
		r.fail("fig9 probe: %v", err)
	}
	if obs.completed != obs.flows {
		r.fail("probe cells completed %d of %d flows", obs.completed, obs.flows)
	}
	if d := pkt.Live() - live; d != 0 {
		r.fail("probe cells left %d packets unreleased after draining their engines", d)
	}
	r.dumbbellLedger(t, obs, pkt.Stats().Gets-gets)

	v["exp.cell_p50_ms"] = quantile(cells, 0.5)
	v["exp.cell_p90_ms"] = quantile(cells, 0.9)
	v["exp.worker_busy_frac"] = median(busy)
	v["exp.tail_idle_ms"] = median(tail)
	v["runstore.save_ms_p50"] = quantile(saves, 0.5)
	v["runstore.save_ms_p99"] = quantile(saves, 0.99)
	v["runstore.load_ms_p50"] = quantile(loads, 0.5)
	v["runstore.hit_frac"] = quantile(hit, 0) // the worst pass
	v["runstore.bytes_per_cell"] = median(bytesPerCell)
	v["qdisc.work_conservation"] = quantile(workCons, 0)
	v["topo.load_ms"] = t.stat("topo.load").hist.quantile(0.5) / 1e6
	if v["runstore.hit_frac"] != 1 {
		r.fail("warm pass store hit fraction %v, want 1", v["runstore.hit_frac"])
	}
	r.gcLedger(gc, units, heapPeak)
	r.spanLedger(t, units, tracedMs, untracedMs)
}
