package main

import (
	"errors"
	"fmt"
)

// namedValue is one reported value; samples is its sample count where the
// output states one.
type namedValue struct {
	name    string
	value   float64
	unit    string
	samples int
}

// Registry counters and histograms the program publishes (public stats).
const (
	ctrMutate     = `smartflux_kvstore_ops_total{op="mutate"}`
	ctrDelete     = `smartflux_kvstore_ops_total{op="delete"}`
	ctrGet        = `smartflux_kvstore_ops_total{op="get"}`
	ctrScan       = `smartflux_kvstore_ops_total{op="scan"}`
	ctrWALAppends = "smartflux_durable_wal_appends_total"
	ctrWALBytes   = "smartflux_durable_wal_bytes_total"
	ctrShipped    = "smartflux_cluster_repl_records_total"
	ctrNetSent    = `smartflux_kvnet_client_bytes_total{dir="sent"}`
	ctrNetRecv    = `smartflux_kvnet_client_bytes_total{dir="recv"}`
	ctrNetRetries = "smartflux_kvnet_client_retries_total"
	ctrFailovers  = "smartflux_cluster_failovers_total"
	histDecide    = "smartflux_engine_decision_latency_seconds"
	histSnapshot  = "smartflux_durable_snapshot_duration_seconds"
)

// breakdown computes the per-layer metrics of a traced run over the same
// adaptive window the timed run's end-to-end metrics use.
// shares splits the window's wall time between the layers, in percent.
func breakdown(timed, traced *runOut) (metrics, shares []namedValue, err error) {
	starts := traced.rec.window()
	timedStarts := timed.rec.window()
	waves := len(starts) - 1
	if waves < 1 || len(timedStarts) != len(starts) {
		return nil, nil, errors.New("traced run has no adaptive window")
	}
	from, to := starts[0], starts[waves]
	wallNs := float64(to - from)
	perWave := func(v float64) float64 { return v / float64(waves) }
	msPerWave := func(ns int64) float64 { return float64(ns) / 1e6 / float64(waves) }

	// The timeline: the program's spans, the processor probes, and the
	// reference instance's waves. The reference is not instrumented, so its
	// wave is taken from outside: from its source call to the start of the
	// live wave that follows it (the harness runs the two back to back).
	sink, rec := traced.sink, traced.rec
	ivs := append(append([]interval(nil), sink.ivs...), rec.execs...)
	for wave := rec.windowLo; wave < rec.windowHi; wave++ {
		live, ok := sink.liveWaves[wave]
		if !ok {
			return nil, nil, fmt.Errorf("no live wave span for wave %d", wave)
		}
		if ref := rec.src[instRef][wave]; ref < live[0] {
			ivs = append(ivs, interval{start: ref, end: live[0], layer: layerEngine})
		}
	}
	self := selfTimes(from, to, ivs)

	lo, hi := traced.snaps[0], traced.snaps[1]
	delta := func(names ...string) float64 {
		var d uint64
		for _, n := range names {
			d += hi.Counters[n] - lo.Counters[n]
		}
		return float64(d)
	}
	decideCalls := float64(hi.Histograms[histDecide].Count - lo.Histograms[histDecide].Count)
	decideNs := (hi.Histograms[histDecide].Sum - lo.Histograms[histDecide].Sum) * 1e9
	// Decisions run inside the live wave span and nothing nests inside them,
	// so the sweep charged them to the engine; move them out.
	engineNs := max(0, float64(self[layerEngine])-decideNs)
	decideUs := 0.0
	if decideCalls > 0 {
		decideUs = decideNs / 1e3 / decideCalls
	}

	apply := traced.res.Apply
	var liveExecs, useful int
	for wv, row := range apply.LiveExecuted {
		for s, ex := range row {
			if ex {
				liveExecs++
				if apply.RefLabels[wv][s] == 1 {
					useful++
				}
			}
		}
	}

	trainS := float64(traced.rec.starts[rec.windowLo]-traced.rec.starts[0]) / 1e9
	snap := traced.reg.Snapshot()
	snapMs := 0.0
	if h := snap.Histograms[histSnapshot]; h.Count > 0 {
		snapMs = h.Sum * 1e3 / float64(h.Count)
	}
	fsyncs := 0
	if traced.info != nil {
		fsyncs = traced.info.Durable.Fsyncs
		if got := snap.Counters[ctrWALAppends]; got != uint64(traced.info.Durable.Appends) {
			return nil, nil, fmt.Errorf("WAL append counter %d disagrees with durable.Stats %d", got, traced.info.Durable.Appends)
		}
	}
	if f := snap.Counters[ctrFailovers]; f != 0 {
		return nil, nil, fmt.Errorf("%d cluster failovers in a fault-free run", f)
	}
	timedWaveNs := float64(timedStarts[waves]-timedStarts[0]) / float64(waves)

	pct := func(ns float64) float64 { return 100 * ns / wallNs }
	shares = []namedValue{
		{"engine", pct(engineNs), "%", 0},
		{"decide", pct(decideNs), "%", 0},
		{"exec.live", pct(float64(self[layerExecLive])), "%", 0},
		{"exec.ref", pct(float64(self[layerExecRef])), "%", 0},
		{"store", pct(float64(self[layerStore])), "%", 0},
		{"wal", pct(float64(self[layerWAL])), "%", 0},
		{"net", pct(float64(self[layerNet])), "%", 0},
		{"unattributed", pct(float64(self[layerNone])), "%", 0},
	}

	return []namedValue{
		{"exec.live_ms_per_wave", msPerWave(self[layerExecLive]), "ms", 0},
		{"exec.ref_ms_per_wave", msPerWave(self[layerExecRef]), "ms", 0},
		{"exec.live_calls_per_wave", perWave(float64(rec.calls[instLive])), "count", 0},
		{"exec.ref_calls_per_wave", perWave(float64(rec.calls[instRef])), "count", 0},
		{"engine.self_ms_per_wave", engineNs / 1e6 / float64(waves), "ms", 0},
		{"engine.self_share_pct", pct(engineNs), "%", 0},
		{"decide.us_per_call", decideUs, "us", 0},
		{"decide.calls_per_wave", perWave(decideCalls), "count", 0},
		{"decide.useful_exec_pct", 100 * float64(useful) / float64(max(1, liveExecs)), "%", 0},
		{"ml.train_s", float64(sink.trainNs) / 1e9, "s", 0},
		{"ml.train_share_pct", 100 * float64(sink.trainNs) / 1e9 / trainS, "%", 0},
		{"store.ops_per_wave", perWave(delta(ctrMutate, ctrDelete, ctrGet, ctrScan)), "count", 0},
		{"store.mutations_per_wave", perWave(delta(ctrMutate, ctrDelete)), "count", 0},
		{"store.ms_per_wave", msPerWave(self[layerStore]), "ms", 0},
		{"wal.appends_per_wave", perWave(delta(ctrWALAppends)), "count", 0},
		{"wal.bytes_per_wave", perWave(delta(ctrWALBytes)), "bytes", 0},
		{"wal.fsyncs", float64(fsyncs), "count", 0},
		{"wal.ms_per_wave", msPerWave(self[layerWAL]), "ms", 0},
		{"wal.snapshot_ms", snapMs, "ms", 0},
		{"net.ships_per_wave", perWave(delta(ctrShipped)), "count", 0},
		{"net.bytes_per_wave", perWave(delta(ctrNetSent, ctrNetRecv)), "bytes", 0},
		{"net.ms_per_wave", msPerWave(self[layerNet]), "ms", 0},
		{"net.retries", float64(snap.Counters[ctrNetRetries]), "count", 0},
		{"cluster.failovers", float64(snap.Counters[ctrFailovers]), "count", 0},
		{"unattributed_pct", pct(float64(self[layerNone])), "%", 0},
		{"trace.overhead_pct", 100 * (wallNs/float64(waves)/timedWaveNs - 1), "%", 0},
	}, shares, nil
}
