package main

// The benchmark's own probes around the calls the engine makes into a
// workload: every step processor of the live and the reference instance is
// wrapped, so the benchmark times processor execution without touching the
// engine, and the source step — the first thing each wave runs — doubles as
// the per-wave clock.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"smartflux"
)

// errAbort stops a set-up probe at its first wave; the probe's pipeline call
// must fail with exactly this error.
var errAbort = errors.New("pipebench: set-up probe stops at the first wave")

// Instances of a harness, in the order the harness builds them (the BuildFunc
// contract: live first, then the synchronous reference).
const (
	instLive = iota
	instRef
)

// clock reads nanoseconds on the wall-clock axis the program's spans use,
// advanced by Go's monotonic clock so host clock steps cannot bend timings.
type clock struct {
	base     time.Time
	baseUnix int64
}

func newClock() clock {
	now := time.Now()
	return clock{base: now, baseUnix: now.UnixNano()}
}

func (c clock) now() int64 { return c.baseUnix + time.Since(c.base).Nanoseconds() }

// recorder wraps a workload's processors and records the wave clock and, when
// timing execution, every processor call as an interval.
type recorder struct {
	clock
	abort     bool   // set-up probe: fail the first source call
	timeExec  bool   // record processor intervals (traced run)
	windowLo  int    // first wave of the measured window (first adaptive wave)
	windowHi  int    // wave whose start closes the window (last adaptive wave)
	atWindow  func() // runs at the window boundaries, outside the window
	builds    int
	firstCall int64 // first source call of any wave (set-up end)

	mu     sync.Mutex
	starts []int64    // per wave: earliest source call across instances
	src    [2][]int64 // per instance and wave: its source call
	live   *smartflux.Store
	execs  []interval
	calls  [2]int // processor calls per instance inside the window
}

// newRecorder creates a recorder for a run of train+apply waves whose
// measured window spans the adaptive phase.
func newRecorder(train, apply int, timeExec bool) *recorder {
	return &recorder{
		clock:    newClock(),
		timeExec: timeExec,
		windowLo: train,
		windowHi: train + apply - 1,
		starts:   make([]int64, 0, train+apply),
	}
}

// wrap returns build with every step processor of each built instance
// wrapped. The first call builds the live instance, the second the reference.
func (r *recorder) wrap(build smartflux.BuildFunc) smartflux.BuildFunc {
	return func() (*smartflux.Workflow, *smartflux.Store, error) {
		wf, store, err := build()
		if err != nil {
			return nil, nil, err
		}
		inst := r.builds
		r.builds++
		if inst > instRef {
			return nil, nil, fmt.Errorf("pipebench: build called %d times, want 2", r.builds)
		}
		if inst == instLive {
			r.live = store
		}
		ids, err := wf.Order()
		if err != nil {
			return nil, nil, err
		}
		for _, id := range ids {
			st, err := wf.Step(id)
			if err != nil {
				return nil, nil, err
			}
			st.Proc = &probe{inner: st.Proc, r: r, inst: inst, source: st.Source}
		}
		return wf, store, nil
	}
}

// probe is one wrapped processor.
type probe struct {
	inner  smartflux.Processor
	r      *recorder
	inst   int
	source bool
}

// Process implements smartflux.Processor.
func (p *probe) Process(ctx *smartflux.Context) error {
	r := p.r
	if p.source {
		if err := r.markWave(ctx.Wave, p.inst); err != nil {
			return err
		}
	}
	if !r.timeExec {
		return p.inner.Process(ctx)
	}
	start := r.now()
	err := p.inner.Process(ctx)
	end := r.now()
	r.mu.Lock()
	if len(r.starts) > r.windowLo {
		r.execs = append(r.execs, interval{start: start, end: end, layer: layerExecLive + layer(p.inst)})
		if ctx.Wave < r.windowHi {
			r.calls[p.inst]++
		}
	}
	r.mu.Unlock()
	return err
}

// markWave records a source call. The earliest call of a wave starts it.
// At the first and the last adaptive wave the boundary hook runs outside the
// timed window: before the window's first timestamp and after its last.
func (r *recorder) markWave(wave, inst int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.firstCall == 0 {
		r.firstCall = r.now()
	}
	if r.abort {
		return errAbort
	}
	if wave != len(r.src[inst]) || wave > len(r.starts) {
		return fmt.Errorf("pipebench: instance %d ran wave %d out of order", inst, wave)
	}
	first := wave == len(r.starts)
	if first && wave == r.windowLo {
		r.atWindow()
	}
	now := r.now()
	r.src[inst] = append(r.src[inst], now)
	if first {
		r.starts = append(r.starts, now)
		if wave == r.windowHi {
			r.atWindow()
		}
	}
	return nil
}

// window returns the adaptive phase's closed wave intervals: the starts of
// waves windowLo..windowHi, whose consecutive differences are the wave times.
func (r *recorder) window() []int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.starts) <= r.windowHi {
		return nil
	}
	return append([]int64(nil), r.starts[r.windowLo:r.windowHi+1]...)
}
