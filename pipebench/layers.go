package main

// Per-layer self time. Every layer's work is an interval on one timeline:
// the program's own spans (engine waves, store ops, WAL ops, net round trips)
// and the benchmark's probes (processor calls, reference waves). A layer's
// self time is the time its intervals cover minus the part that deeper
// layers — its children — cover, with overlapping children merged. Sweeping
// the timeline and charging each instant to the deepest layer covering it
// computes exactly that for every layer at once, and what no layer covers is
// unattributed, so the layers sum to the wave wall time by construction.

import (
	"sort"
	"sync"
	"sync/atomic"

	"smartflux"
)

// layer orders the layers by nesting depth: a deeper layer's intervals sit
// inside a shallower one's (a WAL append inside a store put inside a
// processor call inside an engine wave), so a deeper layer wins an instant.
type layer uint8

const (
	layerNone     layer = iota // no interval: unattributed
	layerEngine                // engine waves: monitoring, ε simulation, decide
	layerExecLive              // live processor calls
	layerExecRef               // reference processor calls
	layerStore                 // kvstore operations
	layerWAL                   // write-ahead log appends, fsyncs, snapshots
	layerNet                   // kvnet round trips and cluster failover/breaker spans
	numLayers
)

// interval is one layer's busy time, in nanoseconds on the span clock.
type interval struct {
	start, end int64
	layer      layer
}

// selfTimes charges every instant of [from, to) to the deepest layer whose
// intervals cover it and returns the nanoseconds per layer; index layerNone
// holds the instants no interval covers.
func selfTimes(from, to int64, ivs []interval) [numLayers]int64 {
	type edge struct {
		at    int64
		layer layer
		delta int
	}
	edges := make([]edge, 0, 2*len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, from), min(iv.end, to)
		if s < e {
			edges = append(edges, edge{s, iv.layer, +1}, edge{e, iv.layer, -1})
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	var out [numLayers]int64
	var active [numLayers]int
	at := from
	for _, e := range edges {
		out[deepest(&active)] += e.at - at
		at = e.at
		active[e.layer] += e.delta
	}
	out[deepest(&active)] += to - at
	return out
}

// deepest returns the deepest layer with an open interval, or layerNone.
func deepest(active *[numLayers]int) layer {
	for l := numLayers - 1; l > layerNone; l-- {
		if active[l] > 0 {
			return l
		}
	}
	return layerNone
}

// spanSink keeps, in compact form, the spans the program emits during a
// traced run: the intervals of the adaptive phase for the sweep, the live
// engine's wave spans and the ML layer's training time.
type spanSink struct {
	from atomic.Int64 // spans ending before this are dropped (train phase)

	mu        sync.Mutex
	ivs       []interval
	liveWaves map[int][2]int64 // live wave index -> span start, end
	trainNs   int64            // "train" spans of the ml layer
}

func newSpanSink() *spanSink {
	return &spanSink{liveWaves: make(map[int][2]int64)}
}

// spanLayers maps the program's span layers onto the sweep's.
var spanLayers = map[string]layer{
	"engine":  layerEngine,
	"store":   layerStore,
	"wal":     layerWAL,
	"net":     layerNet,
	"cluster": layerNet,
}

// EmitSpan implements smartflux.SpanSink.
func (s *spanSink) EmitSpan(ev smartflux.SpanEvent) {
	end := ev.StartNanos + ev.DurNanos
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case ev.Layer == "ml" && ev.Name == "train":
		s.trainNs += ev.DurNanos
		return
	case ev.Layer == "engine" && ev.Name != "wave":
		return // step and attempt spans lie inside their wave span
	case ev.Layer == "engine":
		s.liveWaves[ev.Wave] = [2]int64{ev.StartNanos, end}
	}
	l, ok := spanLayers[ev.Layer]
	if !ok || end < s.from.Load() {
		return
	}
	s.ivs = append(s.ivs, interval{start: ev.StartNanos, end: end, layer: l})
}

var _ smartflux.SpanSink = (*spanSink)(nil)
