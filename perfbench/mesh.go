package main

import (
	"fmt"
	"strings"

	"bundler/internal/exp"
	"bundler/internal/pkt"
	"bundler/internal/scenario"
	"bundler/internal/sim"
)

// untilHorizon is a per-pair request count large enough that arrivals
// never run out (scenario.Traffic treats counts from 2^20 up as "run
// until the horizon"), so a mesh simulates exactly its horizon of steady
// open-loop load.
const untilHorizon = 1 << 20

// meshOptions is the mesh-hub unit: a hub mesh of sites sites, every
// ordered pair its own bundle, with sendbox SFQ re-keying every 500 ms,
// run for horizon of virtual time. shards 0 is auto (GOMAXPROCS outside
// a sweep).
func meshOptions(seed int64, sites int, horizon sim.Time, shards int) scenario.MeshOptions {
	return scenario.MeshOptions{Seed: seed, Sites: sites, Mode: "hub", Bundled: true,
		Requests: untilHorizon, Horizon: horizon, PerturbPeriod: 500 * sim.Millisecond, Shards: shards}
}

// meshResult renders a finished mesh as its canonical result.
func meshResult(m *scenario.Mesh) exp.Result {
	rows := []scenario.Fig9Result{scenario.SummarizeFCT("Bundler (SFQ)", m.Aggregate())}
	o := m.Opt
	var w strings.Builder
	scenario.ReportHeader(&w, fmt.Sprintf("Mesh: %d sites (%d bundles, %s), %v of open-loop load",
		o.Sites, len(m.Pairs), o.Mode, o.Horizon))
	scenario.WriteFCTRows(&w, rows)
	res := exp.Result{Experiment: "mesh-hub", Seed: o.Seed, Report: w.String()}
	scenario.AddFCTRowMetrics(&res, rows)
	res.AddMetric("completed", float64(rows[0].Rec.Completed), "requests")
	return res
}

// meshCheck verifies a finished mesh: no packet crossed bundles inside a
// physical box, and every pair's bundle carried traffic (completed at
// least one flow). It returns the number of flows completed.
func meshCheck(m *scenario.Mesh) (completed int, err error) {
	idle := 0
	for _, pr := range m.Pairs {
		completed += pr.Rec.Completed
		if pr.Rec.Completed == 0 {
			idle++
		}
	}
	if got := m.Misrouted(); got != 0 {
		return completed, fmt.Errorf("mesh misrouted %d packets across bundles", got)
	}
	if idle > 0 {
		return completed, fmt.Errorf("%d of %d mesh pairs completed no flow", idle, len(m.Pairs))
	}
	return completed, nil
}

// meshObs is the traced mesh's counters and samples.
type meshObs struct {
	pending         *hist
	pendingMax      int
	sendboxQdelayMs *hist
	liveMax         int64
	heapPeak        uint64
	transferred     int64
	pkts            int64
	shards          int
}

// tracedMesh builds and runs one mesh under spans: scenario.build around
// NewMesh and shard.run around World.Run. The run loop is Mesh.RunUntil's
// — the same per-pair control-loop teardown at the same barriers — with
// gauges sampled once per virtual second at the barrier, where every
// partition is idle.
func tracedMesh(t *Tracer, obs *meshObs, o scenario.MeshOptions) *scenario.Mesh {
	var m *scenario.Mesh
	t.span(t.kind("scenario.build", true, true), func() { m = scenario.NewMesh(o) })
	kSample := t.kind("bench.sample", false, false)
	base := pkt.Live()
	gets := pkt.Stats().Gets
	done := make([]bool, len(m.Pairs))
	var nextSample sim.Time
	sample := func(now sim.Time) {
		if now < nextSample {
			return
		}
		nextSample = now + sim.Second
		t.begin(kSample)
		pending := 0
		for _, f := range m.Fabs {
			pending += f.Eng.Pending()
		}
		obs.pending.add(float64(pending))
		if pending > obs.pendingMax {
			obs.pendingMax = pending
		}
		for i, pr := range m.Pairs {
			if !done[i] && pr.Site.SB != nil {
				obs.sendboxQdelayMs.add(pr.Site.SB.QueueDelay().Millis())
			}
		}
		if live := pkt.Live() - base; live > obs.liveMax {
			obs.liveMax = live
		}
		obs.heapPeak = max(obs.heapPeak, heapBytes())
		t.end()
	}
	t.span(t.kind("shard.run", true, false), func() {
		m.World.Run(m.Opt.Horizon, func() bool {
			sample(m.Fabs[0].Eng.Now())
			all := true
			for i, pr := range m.Pairs {
				if done[i] {
					continue
				}
				if pr.Rec.Completed < m.Opt.Requests {
					all = false
					continue
				}
				done[i] = true
				if pr.Site.SB != nil {
					pr.Site.SB.Stop()
				}
			}
			return all
		})
	})
	m.Stop()
	obs.transferred += m.World.Transferred()
	obs.pkts += pkt.Stats().Gets - gets
	obs.shards = m.Shards()
	return m
}
