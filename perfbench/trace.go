package main

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"fireflyrpc/internal/simtrace"
	"fireflyrpc/internal/transport"
	"fireflyrpc/internal/wire"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanSend    spanKind = iota // inside Transport.Send or SendBatch
	spanRecv                    // inside the receive callback proto installed
	spanHandler                 // inside one of the benchmark's own handlers
	numKinds
)

var kindNames = [numKinds]string{"send", "recv", "handler"}

// span is one recorded interval; node indexes recorder.nodes.
type span struct {
	start int64
	dur   int32 // ns
	kind  spanKind
	node  int16
}

func (s span) end() int64 { return s.start + int64(s.dur) }

// opSpan is one operation as its caller saw it.
type opSpan struct {
	start, end int64
	class      int
}

// maxSpans bounds the traced run's memory; a fuller run drops the excess
// and says so.
const maxSpans = 1 << 21

// recorder keeps the traced run's spans and frame counts in memory until
// the run ends. It records only while on is set.
type recorder struct {
	on      atomic.Bool
	nodes   []string // node names, registered while the system is built
	mu      sync.Mutex
	spans   []span
	dropped atomic.Int64
	// nearlyFull is set once the span buffer is seven-eighths full.
	nearlyFull atomic.Bool
	ops        []opSpan // written only by the single traced caller
	frames     frameCounts
}

func newRecorder() *recorder {
	return &recorder{spans: make([]span, 0, maxSpans)}
}

func (r *recorder) active() bool { return r != nil && r.on.Load() }

// node registers a node name for spans and the span file. A nil recorder
// registers nothing.
func (r *recorder) node(name string) int16 {
	if r == nil {
		return 0
	}
	r.nodes = append(r.nodes, name)
	return int16(len(r.nodes) - 1)
}

func (r *recorder) add(kind spanKind, node int16, start, end int64) {
	r.mu.Lock()
	if len(r.spans) < cap(r.spans) {
		r.spans = append(r.spans, span{start: start, dur: int32(end - start), kind: kind, node: node})
		if len(r.spans) > cap(r.spans)-cap(r.spans)/8 {
			r.nearlyFull.Store(true)
		}
	} else {
		r.dropped.Add(1)
	}
	r.mu.Unlock()
}

// full reports whether the span buffer is nearly full; the traced caller
// stops there, so every operation it timed has all its spans.
func (r *recorder) full() bool { return r.nearlyFull.Load() }

func (r *recorder) op(start, end int64, class int) {
	r.ops = append(r.ops, opSpan{start: start, end: end, class: class})
}

// frameCounts classifies every frame sent while recording.
type frameCounts struct {
	frames, data, acks, cancels, payload, wire atomic.Int64
}

type frameSnap struct{ frames, data, acks, cancels, payload, wire int64 }

func (f *frameCounts) count(frame []byte) {
	f.frames.Add(1)
	f.wire.Add(int64(len(frame)))
	h, payload, err := wire.UnmarshalRPC(frame)
	if err != nil {
		return
	}
	f.payload.Add(int64(len(payload)))
	switch h.Type {
	case wire.TypeCall, wire.TypeResult:
		f.data.Add(1)
	case wire.TypeAck:
		f.acks.Add(1)
	case wire.TypeCancel:
		f.cancels.Add(1)
	}
}

func (f *frameCounts) snapshot() frameSnap {
	return frameSnap{f.frames.Load(), f.data.Load(), f.acks.Load(), f.cancels.Load(), f.payload.Load(), f.wire.Load()}
}

// tap is the forwarding Transport the traced run puts under each node. It
// forwards SendBatch, BatchEnabled and TransportStats, so the protocol's
// send queue and the batched datapath engage exactly as they do unwrapped.
type tap struct {
	inner transport.Transport
	rec   *recorder
	node  int16
}

// tapped wraps tr for the registered node when rec is non-nil; untraced
// systems run on the bare transport.
func tapped(tr transport.Transport, rec *recorder, node int16) transport.Transport {
	if rec == nil {
		return tr
	}
	return &tap{inner: tr, rec: rec, node: node}
}

func (t *tap) Send(dst transport.Addr, frame []byte) error {
	if !t.rec.on.Load() {
		return t.inner.Send(dst, frame)
	}
	t0 := now()
	err := t.inner.Send(dst, frame)
	t.rec.add(spanSend, t.node, t0, now())
	t.rec.frames.count(frame)
	return err
}

func (t *tap) SendBatch(frames []transport.Frame) (int, error) {
	bs, ok := t.inner.(transport.BatchSender)
	if !ok {
		for i, f := range frames {
			if err := t.Send(f.Dst, f.Data); err != nil {
				return i, err
			}
		}
		return len(frames), nil
	}
	if !t.rec.on.Load() {
		return bs.SendBatch(frames)
	}
	t0 := now()
	n, err := bs.SendBatch(frames)
	t.rec.add(spanSend, t.node, t0, now())
	for _, f := range frames[:n] {
		t.rec.frames.count(f.Data)
	}
	return n, err
}

func (t *tap) BatchEnabled() bool { return transport.SupportsBatch(t.inner) }

func (t *tap) TransportStats() (transport.Stats, bool) {
	if sr, ok := t.inner.(transport.StatsReporter); ok {
		return sr.TransportStats()
	}
	return transport.Stats{}, false
}

func (t *tap) SetReceiver(r transport.Receiver) {
	t.inner.SetReceiver(func(src transport.Addr, frame []byte) {
		if !t.rec.on.Load() {
			r(src, frame)
			return
		}
		t0 := now()
		r(src, frame)
		t.rec.add(spanRecv, t.node, t0, now())
	})
}

func (t *tap) LocalAddr() transport.Addr { return t.inner.LocalAddr() }
func (t *tap) MaxFrame() int             { return t.inner.MaxFrame() }
func (t *tap) Close() error              { return t.inner.Close() }

// analysis is the traced run reduced to per-layer figures.
type analysis struct {
	ops        int
	opTime     int64             // summed operation time
	count      [numKinds]int     // spans inside operations
	p50        [numKinds]float64 // µs, span duration
	self       [numKinds]int64   // summed self time
	handoffP50 float64           // µs, operation time no span covers
	handoff    int64             // summed
	outside    int               // spans that started between operations
	spans      []span            // sorted by start
	parent     []int             // per span: enclosing recv span, or -1
	opOf       []int             // per span: operation index, or -1
	durs       [numKinds][]int64 // for the medians
}

// analyze computes self times. With one operation in flight every span
// that starts inside an operation belongs to it. A send that lies inside a
// receive callback on the same node is that callback's child; the rest of
// a span's time is its own. An operation's self time is the part of it
// that no span covers: the handoffs between goroutines that proto and the
// exchange make between send, receive and the waiting caller.
func (r *recorder) analyze() *analysis {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	a := &analysis{ops: len(r.ops), spans: spans, parent: make([]int, len(spans)), opOf: make([]int, len(spans))}

	// Receive callbacks per node, to find each send's parent.
	recvs := map[int16][]int{}
	for i, s := range spans {
		if s.kind == spanRecv {
			recvs[s.node] = append(recvs[s.node], i)
		}
	}
	childTime := make([]int64, len(spans))
	for i, s := range spans {
		a.parent[i] = -1
		if s.kind != spanSend {
			continue
		}
		list := recvs[s.node]
		k := sort.Search(len(list), func(k int) bool { return spans[list[k]].start > s.start }) - 1
		if k >= 0 && spans[list[k]].end() >= s.end() {
			a.parent[i] = list[k]
			childTime[list[k]] += int64(s.dur)
		}
	}

	// Assign spans to operations and measure what each operation's spans
	// cover, clipped to the operation.
	handoffs := make([]int64, 0, len(r.ops))
	for i := range spans {
		a.opOf[i] = -1
	}
	si := 0
	for oi, op := range r.ops {
		for si < len(spans) && spans[si].start < op.start {
			a.outside++
			si++
		}
		var covered, curS, curE int64
		curS, curE = -1, -1
		for ; si < len(spans) && spans[si].start < op.end; si++ {
			s := spans[si]
			a.opOf[si] = oi
			a.count[s.kind]++
			d := int64(s.dur)
			a.durs[s.kind] = append(a.durs[s.kind], d)
			a.self[s.kind] += d - childTime[si]
			end := s.end()
			if end > op.end {
				end = op.end
			}
			if s.start > curE {
				covered += curE - curS
				curS, curE = s.start, end
			} else if end > curE {
				curE = end
			}
		}
		covered += curE - curS
		h := op.end - op.start - covered
		handoffs = append(handoffs, h)
		a.handoff += h
		a.opTime += op.end - op.start
	}
	a.outside += len(spans) - si
	for k := range a.durs {
		slices.Sort(a.durs[k])
		a.p50[k] = quantile(a.durs[k], 0.5)
	}
	slices.Sort(handoffs)
	a.handoffP50 = quantile(handoffs, 0.5)
	return a
}

// print reports each layer's self time per operation and its share of the
// operation time; the shares sum to about 100%, more where spans on
// different goroutines overlap.
func (a *analysis) print() {
	ops := a.ops
	if ops == 0 {
		return
	}
	fmt.Printf("traced: %d operations, %.2f us each; self time by layer (%d spans between operations not counted)\n",
		ops, float64(a.opTime)/float64(ops)/1e3, a.outside)
	fmt.Printf("  %-22s %10s %10s %12s %7s\n", "layer", "spans/op", "p50 us", "self us/op", "share")
	row := func(name string, n int, p50 float64, self int64) {
		fmt.Printf("  %-22s %10.2f %10.2f %12.2f %6.1f%%\n", name, float64(n)/float64(ops), p50,
			float64(self)/float64(ops)/1e3, 100*float64(self)/float64(a.opTime))
	}
	row("proto handoff (none)", ops, a.handoffP50, a.handoff)
	row("transport send", a.count[spanSend], a.p50[spanSend], a.self[spanSend])
	row("proto receive", a.count[spanRecv], a.p50[spanRecv], a.self[spanRecv])
	row("core handler", a.count[spanHandler], a.p50[spanHandler], a.self[spanHandler])
}

// perfetto renders the first n operations and their spans through the
// program's own span schema, so the file opens in Perfetto beside the
// program's traces.
func (r *recorder) perfetto(a *analysis, classes []string, n int) []byte {
	if n > len(r.ops) {
		n = len(r.ops)
	}
	var out []simtrace.Span
	for i := 0; i < n; i++ {
		op := r.ops[i]
		out = append(out, simtrace.Span{
			Trace: uint64(i + 1), ID: uint64(i + 1), Process: "callers", Track: "operation",
			Name: classes[op.class], StartNs: op.start, EndNs: op.end,
		})
	}
	const idBase = 1 << 32
	for i, s := range a.spans {
		oi := a.opOf[i]
		if oi < 0 || oi >= n {
			continue
		}
		parent := uint64(oi + 1)
		if p := a.parent[i]; p >= 0 {
			parent = uint64(idBase + p)
		}
		out = append(out, simtrace.Span{
			Trace: uint64(oi + 1), ID: uint64(idBase + i), Parent: parent,
			Process: r.nodes[s.node], Track: kindNames[s.kind], Name: kindNames[s.kind],
			StartNs: s.start, EndNs: s.end(),
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartNs < out[j].StartNs })
	doc := simtrace.NewSpanDoc()
	doc.AddSpans(out)
	return doc.JSON()
}
