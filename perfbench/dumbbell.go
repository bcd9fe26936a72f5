package main

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"bundler/internal/bundle"
	"bundler/internal/exp"
	"bundler/internal/netem"
	"bundler/internal/pkt"
	"bundler/internal/qdisc"
	"bundler/internal/scenario"
	"bundler/internal/sim"
	"bundler/internal/tcp"
	"bundler/internal/workload"
)

// fig9Variants are Figure 9's four configurations, in the registered
// experiment's order.
var fig9Variants = []struct{ label, mode, sched string }{
	{"Status Quo", "statusquo", ""},
	{"Bundler (SFQ)", "bundler", "sfq"},
	{"In-Network FQ", "innetwork", ""},
	{"Bundler (FIFO)", "bundler", "fifo"},
}

// runFig9 runs the registered fig9 experiment, the program the traced
// dumbbell wiring must reproduce.
func runFig9(seed int64, requests int) (exp.Result, error) {
	e, ok := exp.Lookup("fig9")
	if !ok {
		return exp.Result{}, fmt.Errorf("fig9 is not registered")
	}
	return e.Run(seed, fig9Params(requests))
}

func fig9Params(requests int) exp.Params {
	return exp.Params{"requests": strconv.Itoa(requests)}
}

// fig9Check applies the paper's direction to a fig9 result: Bundler with
// SFQ must beat the status quo. At the probe's 15000 requests many seeds
// leave both medians at the slowdown floor of 1 (the status quo's queue
// has not built yet), so the median may tie but not lose, and the p99
// slowdown must be strictly lower.
func fig9Check(res exp.Result) error {
	sq, sfq := res.Metric("Status_Quo/median-slowdown"), res.Metric("Bundler_(SFQ)/median-slowdown")
	sq99, sfq99 := res.Metric("Status_Quo/p99-slowdown"), res.Metric("Bundler_(SFQ)/p99-slowdown")
	if !(sfq <= sq && sfq99 < sq99) {
		return fmt.Errorf("paper direction violated: Bundler+SFQ slowdown p50 %.3f / p99 %.3f against status quo %.3f / %.3f",
			sfq, sfq99, sq, sq99)
	}
	return nil
}

func canonical(res exp.Result) []byte {
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // exp.Result always marshals: NaN metrics encode as null
	}
	return b
}

// webClass is one open-loop web workload through the traced site.
type webClass struct {
	port     uint16
	offered  float64 // bits/s
	requests int
}

// fctSpec is one traced dumbbell run: the §7.1 single-bottleneck setup
// wired from the packages' public constructors, with a tracing decorator
// on every seam.
type fctSpec struct {
	seed    int64
	mode    string // statusquo, bundler, innetwork
	sched   string // sendbox scheduler, as scenario.ParseScheduler spells it
	classes []webClass
	horizon sim.Time
}

// dumbbellObs collects the traced dumbbell's counters and samples across
// every run that shares it.
type dumbbellObs struct {
	ackPkts, sackBlocks int64
	dataPkts, retxPkts  int64
	ctlPkts             int64
	bnArrivals, bnDrops int64
	bnQdelayMs          *hist
	sendboxDepth        *hist
	sendboxQdelayMs     *hist
	pending             *hist
	pendingMax          int
	liveMax             int64
	heapPeak            uint64
	flows, completed    int
}

func newDumbbellObs() *dumbbellObs {
	return &dumbbellObs{bnQdelayMs: newHist(), sendboxDepth: newHist(),
		sendboxQdelayMs: newHist(), pending: newHist()}
}

// tracedNet mirrors scenario.NewNet + Fabric.AddSiteAt + Site.AddFlowPort
// + Site.RunOpenLoop step for step — same constructors, same order, same
// address and flow-ID allocation — so the run schedules exactly the
// events the registered experiment does and produces the same bytes.
type tracedNet struct {
	t   *Tracer
	obs *dumbbellObs
	eng *sim.Engine

	tcpClk, wlClk *tracedClock
	muxA, muxB    *tcp.Mux
	demux         *netem.Demux
	toReverse     netem.Receiver
	ingress       netem.Receiver
	egress        netem.Receiver
	bottleneck    *netem.Link
	sb            *bundle.Sendbox
	nextHost      uint32
	flowID        uint64
	kAck, kRcv    int
}

func newTracedNet(t *Tracer, obs *dumbbellObs, s fctSpec) *tracedNet {
	const rate, rtt = 96e6, 50 * sim.Millisecond
	bufBytes := 2 * int(rate/8*rtt.Seconds())
	eng := sim.NewEngine(s.seed)
	n := &tracedNet{t: t, obs: obs, eng: eng,
		tcpClk: t.clock(eng, "tcp.timer", "tcp.tick"),
		wlClk:  t.clock(eng, "workload.arrival", "workload.tick"),
		muxA:   tcp.NewMux(), muxB: tcp.NewMux(), demux: netem.NewDemux(),
		nextHost: 1 << 16,
		kAck:     t.kind("tcp.ack", false, true),
		kRcv:     t.kind("tcp.rcv", false, true),
	}
	linkClk := t.clock(eng, "netem.link", "netem.tick")

	var bq qdisc.Qdisc = qdisc.NewFIFO(bufBytes)
	disc := "fifo"
	if s.mode == "innetwork" {
		bq, disc = qdisc.NewSFQ(1024, bufBytes/pkt.MTU), "sfq"
	}
	n.bottleneck = netem.NewLink(linkClk, "bottleneck", rate, rtt/2, t.qdisc(disc, bq),
		t.recv("netem.demux", n.demux, nil))
	n.bottleneck.OnDequeue(func(_ *pkt.Packet, qd sim.Time) { obs.bnQdelayMs.add(qd.Millis()) })
	reverse := netem.NewLink(linkClk, "reverse", 10e9, rtt/2, t.qdisc("fifo", qdisc.NewFIFO(1<<26)),
		t.recv("tcp.mux", n.muxA, nil))
	n.toReverse = t.recv("netem.link", reverse, nil)

	// The one site, as Fabric.AddSiteAt builds it. Its egress counts the
	// senders' data packets on their way out.
	countData := func(p *pkt.Packet) {
		obs.dataPkts++
		if p.Retransmit {
			obs.retxPkts++
		}
	}
	muxBIn := t.recv("tcp.mux", n.muxB, nil)
	n.ingress = muxBIn
	n.egress = t.recv("netem.link", n.bottleneck, func(p *pkt.Packet) {
		obs.bnArrivals++
		countData(p)
	})
	if s.mode == "bundler" {
		sbCtl := pkt.Addr{Host: 1 << 30, Port: 1}
		rbCtl := pkt.Addr{Host: 1 << 30, Port: 2}
		sched, err := scenario.ParseScheduler(eng, s.sched, 1000)
		if err != nil {
			panic(err) // specs are the benchmark's own constants
		}
		disc, _, _ := strings.Cut(s.sched, ":")
		if disc == "" {
			disc = "sfq"
		}
		tq := t.qdisc(disc, sched)
		tq.onEnq = func(q qdisc.Qdisc) { obs.sendboxDepth.add(float64(q.Len())) }
		bcfg := bundle.Config{Scheduler: tq}
		toBottleneck := t.recv("netem.link", n.bottleneck, func(*pkt.Packet) { obs.bnArrivals++ })
		n.sb = bundle.NewSendbox(t.clock(eng, "bundle.sendbox", "bundle.tick"), bcfg, toBottleneck, sbCtl, rbCtl)
		rb := bundle.NewReceivebox(t.clock(eng, "bundle.rb", "bundle.rbtick"), n.toReverse, rbCtl, sbCtl, bcfg.InitialEpochN)
		countCtl := func(*pkt.Packet) { obs.ctlPkts++ }
		n.muxA.Register(sbCtl, t.recv("bundle.ctl", n.sb, countCtl))
		n.muxB.Register(rbCtl, t.recv("bundle.rb", rb, countCtl))
		n.demux.Route(rbCtl.Host, muxBIn)
		kObs := t.kind("bundle.rb", false, true)
		n.ingress = netem.NewTap(func(p *pkt.Packet) { t.begin(kObs); rb.Observe(p); t.end() }, muxBIn)
		n.egress = t.recv("bundle.sendbox", n.sb, countData)
	}
	return n
}

// addFlow is Site.AddFlowPort.
func (n *tracedNet) addFlow(size int64, port uint16, done func(size int64, fct sim.Time)) {
	src := pkt.Addr{Host: n.nextHost, Port: 5000}
	n.nextHost++
	dst := pkt.Addr{Host: n.nextHost, Port: port}
	n.nextHost++
	n.demux.Route(dst.Host, n.ingress)
	n.flowID++
	start := n.eng.Now()
	rcv := tcp.NewReceiver(n.tcpClk, n.toReverse, dst, src, n.flowID, size, func(now sim.Time) {
		done(size, now-start)
	})
	snd := tcp.NewSender(n.tcpClk, n.egress, src, dst, n.flowID, size, tcp.NewEndhostCC("cubic"), func(sim.Time) {
		n.muxA.Unregister(src)
		n.muxB.Unregister(dst)
	})
	obs := n.obs
	n.muxA.Register(src, &tracedRecv{t: n.t, kind: n.kAck, next: snd, peek: func(p *pkt.Packet) {
		obs.ackPkts++
		obs.sackBlocks += int64(p.NSACK)
	}})
	n.muxB.Register(dst, &tracedRecv{t: n.t, kind: n.kRcv, next: rcv})
	snd.Start()
}

// openLoop is Site.RunOpenLoop for one web class.
func (n *tracedNet) openLoop(c webClass) *workload.Recorder {
	rec := workload.NewRecorder(96e6, 50*sim.Millisecond)
	rec.Reserve(c.requests)
	workload.Arrivals(n.wlClk, workload.PaperWebCDF(), c.offered, c.requests, func(size int64) {
		n.addFlow(size, c.port, func(sz int64, fct sim.Time) { rec.Record(sz, fct) })
	})
	return rec
}

// runTracedFCT builds and runs one traced dumbbell, stepping the engine
// in the same one-second windows as Fabric.RunUntilDone and sampling the
// gauges at each step. It returns one recorder per web class.
func runTracedFCT(t *Tracer, obs *dumbbellObs, s fctSpec) []*workload.Recorder {
	n := newTracedNet(t, obs, s)
	recs := make([]*workload.Recorder, len(s.classes))
	for i, c := range s.classes {
		recs[i] = n.openLoop(c)
		obs.flows += c.requests
	}
	done := func() bool {
		for i, r := range recs {
			if r.Completed < s.classes[i].requests {
				return false
			}
		}
		return true
	}
	kRun := t.kind("sim.run", false, false)
	kSample := t.kind("bench.sample", false, false)
	base := pkt.Live()
	for n.eng.Now() < s.horizon {
		if done() {
			break
		}
		t.begin(kSample)
		p := n.eng.Pending()
		obs.pending.add(float64(p))
		if p > obs.pendingMax {
			obs.pendingMax = p
		}
		if n.sb != nil {
			obs.sendboxQdelayMs.add(n.sb.QueueDelay().Millis())
		}
		if live := pkt.Live() - base; live > obs.liveMax {
			obs.liveMax = live
		}
		obs.heapPeak = max(obs.heapPeak, heapBytes())
		t.end()
		next := n.eng.Now() + sim.Second
		if next > s.horizon {
			next = s.horizon
		}
		t.begin(kRun)
		n.eng.RunUntil(next)
		t.end()
	}
	if n.sb != nil {
		n.sb.Stop()
	}
	if done() {
		// Every flow finished, so nothing left can change the result:
		// run the engine dry so the packets still in flight reach their
		// consumers and return to the pool, and the caller can check
		// that the live count is back where it started.
		n.eng.RunUntil(n.eng.Now() + 60*sim.Second)
	}
	obs.bnDrops += int64(n.bottleneck.Rejected() + n.bottleneck.Queue().Drops())
	for _, r := range recs {
		obs.completed += r.Completed
	}
	return recs
}

// tracedFig9 is Figure 9 through the traced wiring, rendered exactly as
// the registered experiment renders its result.
func tracedFig9(t *Tracer, obs *dumbbellObs, seed int64, requests int) exp.Result {
	horizon := 10 * sim.Time(requests) * sim.Millisecond
	if horizon < 120*sim.Second {
		horizon = 120 * sim.Second
	}
	var rows []scenario.Fig9Result
	for _, v := range fig9Variants {
		recs := runTracedFCT(t, obs, fctSpec{seed: seed, mode: v.mode, sched: v.sched,
			classes: []webClass{{port: 80, offered: 84e6, requests: requests}}, horizon: horizon})
		rows = append(rows, scenario.SummarizeFCT(v.label, recs[0]))
	}
	var w strings.Builder
	scenario.ReportHeader(&w, fmt.Sprintf("Figure 9: FCT slowdowns (%d requests; paper: 1M, medians 1.76 → 1.26)", requests))
	scenario.WriteFCTRows(&w, rows)
	res := exp.Result{Experiment: "fig9", Seed: seed, Params: fig9Params(requests), Report: w.String()}
	scenario.AddFCTRowMetrics(&res, rows)
	return res
}
