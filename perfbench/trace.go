package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bundler/internal/clock"
	"bundler/internal/netem"
	"bundler/internal/pkt"
	"bundler/internal/qdisc"
)

// This file is the benchmark's tracing layer. Nothing in the program
// under test knows about it: spans are recorded by decorators the
// benchmark wraps around the program's public seams — clock.Clock (so
// every callback a component schedules is timed and attributed to that
// component's layer), netem.Receiver (every packet hand-off), and
// qdisc.Qdisc (every enqueue and dequeue).
//
// A span's self time is its duration minus its children's. The tracer
// keeps a stack of open spans, so self time is exact and the self times
// of all spans under the root add up to the root's duration. The root's
// own self time is whatever no layer span covered: "unattributed".

// Span is one logged span.
type Span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Run    int32  `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// kindStat accumulates every span of one name.
type kindStat struct {
	name   string
	layer  string // the name up to its first "."
	n      int64
	self   int64 // ns
	total  int64 // ns, children included
	hist   *hist // self ns per span; nil when percentiles aren't needed
	logAll bool
}

type frame struct {
	kind  int
	start int64
	child int64
	id    int32 // index in the span log, -1 when not logged
}

// Tracer records spans. It is single-goroutine: each traced simulation
// runs on one engine, driven from the goroutine that owns the tracer.
type Tracer struct {
	base  time.Time
	kinds []*kindStat
	index map[string]int
	stack []frame
	log   []Span
	run   int32
	// events counts the simulation events the traced clocks dispatched.
	events int64
}

// logEvery thins the span log: fine spans (per packet, per event) are
// far too many to keep, so one in logEvery of each kind is logged and
// the rest only aggregated.
const logEvery = 4096

func newTracer() *Tracer {
	return &Tracer{base: time.Now(), index: make(map[string]int)}
}

func (t *Tracer) now() int64 { return int64(time.Since(t.base)) }

// kind registers (or finds) a span name. logAll kinds are coarse — one
// per run, phase, or cell — and every one is logged; withHist keeps a
// percentile histogram of their self times.
func (t *Tracer) kind(name string, logAll, withHist bool) int {
	if k, ok := t.index[name]; ok {
		return k
	}
	layer, _, _ := strings.Cut(name, ".")
	ks := &kindStat{name: name, layer: layer, logAll: logAll}
	if withHist {
		ks.hist = newHist()
	}
	t.kinds = append(t.kinds, ks)
	t.index[name] = len(t.kinds) - 1
	return len(t.kinds) - 1
}

func (t *Tracer) begin(k int) {
	f := frame{kind: k, start: t.now(), id: -1}
	ks := t.kinds[k]
	if ks.logAll || ks.n%logEvery == 0 {
		f.id = int32(len(t.log))
		t.log = append(t.log, Span{ID: f.id, Parent: t.loggedParent(), Run: t.run, Name: ks.name, Start: f.start})
	}
	t.stack = append(t.stack, f)
}

func (t *Tracer) loggedParent() int32 {
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i].id >= 0 {
			return t.stack[i].id
		}
	}
	return -1
}

// end closes the innermost span and returns its self time in ns.
func (t *Tracer) end() int64 {
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	end := t.now()
	dur := end - f.start
	self := dur - f.child
	ks := t.kinds[f.kind]
	ks.n++
	ks.self += self
	ks.total += dur
	if ks.hist != nil {
		ks.hist.add(float64(self))
	}
	if f.id >= 0 {
		t.log[f.id].End = end
	}
	if n > 0 {
		t.stack[n-1].child += dur
	}
	return self
}

// span runs fn inside a span of kind k.
func (t *Tracer) span(k int, fn func()) {
	t.begin(k)
	fn()
	t.end()
}

// stat returns the named kind's aggregate (a zero one if never seen).
func (t *Tracer) stat(name string) *kindStat {
	if k, ok := t.index[name]; ok {
		return t.kinds[k]
	}
	return &kindStat{name: name, hist: newHist()}
}

// layerSelf sums self time (ns) over every kind in layer.
func (t *Tracer) layerSelf(layer string) int64 {
	var s int64
	for _, ks := range t.kinds {
		if ks.layer == layer {
			s += ks.self
		}
	}
	return s
}

// writeLog writes the span log as JSON lines under dir: header first,
// then one line per logged span.
func (t *Tracer) writeLog(dir, name string, header any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for i := range t.log {
		if err := enc.Encode(&t.log[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedClock decorates a component's clock: every callback the
// component schedules runs inside a span of callKind, every tick inside
// tickKind. Scheduling goes straight through to the inner clock with the
// same times and in the same order, so the simulation's (at, seq) event
// order — and therefore its output — is unchanged.
type tracedClock struct {
	clock.Clock
	t        *Tracer
	callKind int
	tickKind int
	free     []*tracedCall
}

type tracedCall struct {
	c      *tracedClock
	fn     func(a0, a1 any)
	a0, a1 any
}

func (t *Tracer) clock(inner clock.Clock, callName, tickName string) *tracedClock {
	return &tracedClock{Clock: inner, t: t,
		callKind: t.kind(callName, false, false),
		tickKind: t.kind(tickName, false, true)}
}

func (c *tracedClock) wrap(fn func(a0, a1 any), a0, a1 any) *tracedCall {
	var tc *tracedCall
	if n := len(c.free); n > 0 {
		tc = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		tc = &tracedCall{c: c}
	}
	tc.fn, tc.a0, tc.a1 = fn, a0, a1
	return tc
}

func runTraced(a0, _ any) {
	tc := a0.(*tracedCall)
	c, fn, x, y := tc.c, tc.fn, tc.a0, tc.a1
	tc.fn, tc.a0, tc.a1 = nil, nil, nil
	c.free = append(c.free, tc)
	c.t.events++
	c.t.begin(c.callKind)
	fn(x, y)
	c.t.end()
}

func (c *tracedClock) CallAt(at clock.Time, fn func(a0, a1 any), a0, a1 any) {
	c.Clock.CallAt(at, runTraced, c.wrap(fn, a0, a1), nil)
}

func (c *tracedClock) CallAfter(d clock.Time, fn func(a0, a1 any), a0, a1 any) {
	c.Clock.CallAfter(d, runTraced, c.wrap(fn, a0, a1), nil)
}

func (c *tracedClock) NewTimer(fn func()) clock.Timer {
	return c.Clock.NewTimer(func() {
		c.t.events++
		c.t.span(c.callKind, fn)
	})
}

func (c *tracedClock) Tick(period clock.Time, fn func()) clock.Ticker {
	return c.Clock.Tick(period, func() {
		c.t.events++
		c.t.span(c.tickKind, fn)
	})
}

// tracedRecv decorates a packet hand-off. peek, when set, reads the
// packet before it is handed on (never after: the hand-off transfers
// ownership).
type tracedRecv struct {
	t    *Tracer
	kind int
	next netem.Receiver
	peek func(p *pkt.Packet)
}

func (t *Tracer) recv(name string, next netem.Receiver, peek func(p *pkt.Packet)) *tracedRecv {
	return &tracedRecv{t: t, kind: t.kind(name, false, true), next: next, peek: peek}
}

func (r *tracedRecv) Receive(p *pkt.Packet) {
	if r.peek != nil {
		r.peek(p)
	}
	r.t.begin(r.kind)
	r.next.Receive(p)
	r.t.end()
}

// tracedQdisc decorates a queue: enqueue and dequeue each run in a span
// named qdisc.<discipline>.enq/.deq, and onEnq (optional) sees the queue
// length after every accepted packet.
type tracedQdisc struct {
	qdisc.Qdisc
	t        *Tracer
	enq, deq int
	onEnq    func(q qdisc.Qdisc)
}

func (t *Tracer) qdisc(discipline string, inner qdisc.Qdisc) *tracedQdisc {
	return &tracedQdisc{Qdisc: inner, t: t,
		enq: t.kind(fmt.Sprintf("qdisc.%s.enq", discipline), false, true),
		deq: t.kind(fmt.Sprintf("qdisc.%s.deq", discipline), false, true)}
}

func (q *tracedQdisc) Enqueue(p *pkt.Packet) bool {
	q.t.begin(q.enq)
	ok := q.Qdisc.Enqueue(p)
	q.t.end()
	if ok && q.onEnq != nil {
		q.onEnq(q.Qdisc)
	}
	return ok
}

func (q *tracedQdisc) Dequeue() *pkt.Packet {
	q.t.begin(q.deq)
	p := q.Qdisc.Dequeue()
	q.t.end()
	return p
}
