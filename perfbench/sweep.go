package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"bundler/internal/exp"
	"bundler/internal/runstore"
	"bundler/internal/topo"
)

// megasweepConfig is the shipped scheduler megasweep, and megasweepGrid
// its documented 144-cell grid: fifo/sp/wfq × 8 base latencies × 2 loads
// × 3 bottleneck delays. The benchmark runs every cell for a fixed 2 s
// of open-loop load (the request count never runs out before the
// horizon) instead of to 400 completed requests per class: all cells of
// a grid share one seed, hence one draw of heavy-tailed flow sizes, and
// run-to-completion cells let that single draw swing a grid's cost by 4×
// from seed to seed.
const (
	megasweepConfig = "examples/configs/megasweep.json"
	megasweepGrid   = "mode=fifo,sp,wfq;baselatency=10ms,50ms,100ms,200ms,300ms,400ms,500ms,1000ms;load=10e6,30e6;delay=24ms,16ms,10ms"
	sweepGrid       = megasweepGrid + ";requests=1048576;horizon=2s"
)

// timing is a concurrency-safe list of operation durations in ms, with
// each operation's end time for tail analysis.
type timing struct {
	mu   sync.Mutex
	ms   []float64
	ends []time.Time
}

func (tm *timing) add(start time.Time) {
	end := time.Now()
	tm.mu.Lock()
	tm.ms = append(tm.ms, float64(end.Sub(start))/1e6)
	tm.ends = append(tm.ends, end)
	tm.mu.Unlock()
}

// timedExp decorates the swept experiment so every cell is timed. It
// forwards SourceHash and Metadata, so run-store keys and manifests are
// exactly those of the undecorated experiment.
type timedExp struct {
	exp.Experiment
	cells *timing
}

func (e timedExp) Run(seed int64, p exp.Params) (exp.Result, error) {
	defer e.cells.add(time.Now())
	return e.Experiment.Run(seed, p)
}

func (e timedExp) SourceHash() string {
	if h, ok := e.Experiment.(exp.SourceHasher); ok {
		return h.SourceHash()
	}
	return ""
}

func (e timedExp) Metadata() map[string]string {
	if md, ok := e.Experiment.(exp.Metadater); ok {
		return md.Metadata()
	}
	return nil
}

// timedCache decorates the run store so every Save and Load is timed.
type timedCache struct {
	store       *runstore.Store
	save, load  *timing
	hits, loads int
	mu          sync.Mutex
}

func (c *timedCache) Load(e exp.Experiment, pt exp.Point) (exp.Result, bool) {
	start := time.Now()
	res, ok := c.store.Load(e, pt)
	c.load.add(start)
	c.mu.Lock()
	c.loads++
	if ok {
		c.hits++
	}
	c.mu.Unlock()
	return res, ok
}

func (c *timedCache) Save(e exp.Experiment, pt exp.Point, res exp.Result, dur time.Duration) {
	start := time.Now()
	c.store.Save(e, pt, res, dur)
	c.save.add(start)
}

// sweepPass is one sched-sweep unit: a cold sweep that checkpoints every
// cell into a fresh store, then a warm resume that must load them all.
type sweepPass struct {
	cold        time.Duration
	cells       *timing // cold-pass cells only
	cache       *timedCache
	out         []byte // cold-pass JSON
	failedCells int
	storeBytes  int64
	workConsMin float64
	parallel    int
	heapPeak    uint64 // sampled as each cold-pass cell finishes
}

func loadMegasweep() (exp.Experiment, error) {
	e, _, err := topo.RegisterFile(megasweepConfig)
	return e, err
}

// runSweepPass runs one cold + warm pass in storeDir (created fresh by
// runstore.Open; the caller removes it).
func runSweepPass(e exp.Experiment, g exp.Grid, storeDir string, parallel int) (*sweepPass, error) {
	store, err := runstore.Open(storeDir)
	if err != nil {
		return nil, err
	}
	sp := &sweepPass{cells: &timing{}, parallel: parallel,
		cache: &timedCache{store: store, save: &timing{}, load: &timing{}}}
	cold := timedExp{Experiment: e, cells: sp.cells}
	start := time.Now()
	res, _, err := exp.SweepOpts(cold, g, exp.Options{Parallel: parallel, Cache: sp.cache,
		Progress: func(int, int, int) { sp.heapPeak = max(sp.heapPeak, heapBytes()) }})
	sp.cold = time.Since(start)
	for _, r := range res {
		if r.Err != "" {
			sp.failedCells++
		}
	}
	if err != nil {
		return sp, fmt.Errorf("cold sweep: %w", err)
	}
	if err := store.Err(); err != nil {
		return sp, fmt.Errorf("run store: %w", err)
	}
	sp.workConsMin = math.Inf(1)
	for _, r := range res {
		for _, m := range r.Metrics {
			if strings.HasSuffix(m.Name, "/work-conservation") && m.Value < sp.workConsMin {
				sp.workConsMin = m.Value
			}
		}
	}
	var cold1 bytes.Buffer
	if err := exp.WriteJSON(&cold1, res); err != nil {
		return sp, err
	}
	sp.out = cold1.Bytes()

	wres, st, err := exp.SweepOpts(e, g, exp.Options{Parallel: parallel, Cache: sp.cache, Resume: true})
	if err != nil {
		return sp, fmt.Errorf("warm sweep: %w", err)
	}
	var warm1 bytes.Buffer
	if err := exp.WriteJSON(&warm1, wres); err != nil {
		return sp, err
	}
	filepath.WalkDir(storeDir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				sp.storeBytes += info.Size()
			}
		}
		return nil
	})
	switch {
	case st.Cached != st.Total:
		return sp, fmt.Errorf("warm resume loaded %d of %d cells from the store", st.Cached, st.Total)
	case !bytes.Equal(sp.out, warm1.Bytes()):
		return sp, fmt.Errorf("warm resume output differs from the cold sweep's")
	case math.Abs(sp.workConsMin-1) > 1e-9:
		return sp, fmt.Errorf("sendbox work conservation fell to %v (want 1)", sp.workConsMin)
	}
	return sp, nil
}

// hitFrac is the warm pass's store hit fraction.
func (sp *sweepPass) hitFrac() float64 {
	c := sp.cache
	if c.loads == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.loads)
}

// tailIdleMs is worker time lost to the sweep's tail: once the last cell
// has been handed out, each worker that finishes idles until the sweep
// ends. With P workers the last P cells to finish are the workers' last
// ones; the idle time is the sum of (sweep end − cell end) over all but
// the very last.
func (sp *sweepPass) tailIdleMs() float64 {
	ends := append([]time.Time(nil), sp.cells.ends...)
	if len(ends) == 0 {
		return 0
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i].Before(ends[j]) })
	last := ends[len(ends)-1]
	idle := 0.0
	for k := 2; k <= sp.parallel && k <= len(ends); k++ {
		idle += float64(last.Sub(ends[len(ends)-k])) / 1e6
	}
	return idle
}
