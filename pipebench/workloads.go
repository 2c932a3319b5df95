package main

// The three workloads and one pipeline run. Every workload is the CLI's
// pipeline (cmd/smartflux -policy smartflux) at its defaults — bound 10%, 336
// training waves, GOMAXPROCS parallelism — driven through smartflux.RunPipeline
// or smartflux.RunPipelineDurable.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"smartflux"
	"smartflux/internal/kvstore/cluster"
	"smartflux/workloads"
)

const (
	maxError      = 0.10 // the CLI's -bound
	trainWaves    = 336  // the CLI's -train
	snapshotEvery = 64   // the CLI's -snapshot-every
	clusterShards = 3    // -cluster 3: 3 primaries + 3 replicas
)

// workload is one benchmark input. rate is the adaptive-phase wave rate
// measured on the reference host (see README.md); the adaptive phase gets
// rate × --seconds waves, so the wave count — and with it every result — is a
// pure function of the arguments, while the phase lasts about --seconds.
type workload struct {
	name   string
	rate   float64
	build  func(seed int64) smartflux.BuildFunc
	report smartflux.StepID
	// walCluster runs the durable pipeline (fsync=commit) with the live
	// store mirrored into an in-process replicated cluster.
	walCluster bool
}

var benchWorkloads = []workload{
	{
		name: "lrb",
		rate: 32,
		build: func(seed int64) smartflux.BuildFunc {
			return workloads.LinearRoad(workloads.LinearRoadConfig{Seed: seed, MaxError: maxError})
		},
		report: workloads.LinearRoadClassify,
	},
	{
		name: "aqhi",
		rate: 330,
		build: func(seed int64) smartflux.BuildFunc {
			return workloads.AirQuality(workloads.AirQualityConfig{Seed: seed, MaxError: maxError})
		},
		report: workloads.AirQualityIndex,
	},
	{
		name: "firerisk-wal-cluster",
		rate: 34,
		build: func(seed int64) smartflux.BuildFunc {
			return workloads.FireRisk(workloads.FireRiskConfig{Seed: seed, MaxError: maxError})
		},
		report:     workloads.FireRiskOverall,
		walCluster: true,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// pipelineConfig mirrors what cmd/smartflux passes for -seed seed.
func pipelineConfig(seed int64, train, apply int, o *smartflux.RunObserver) smartflux.PipelineConfig {
	return smartflux.PipelineConfig{
		TrainWaves: train,
		ApplyWaves: apply,
		Session: smartflux.SessionConfig{
			Seed:           seed + 7,
			Thresholds:     []float64{0.15},
			PositiveWeight: 14,
		},
		Obs: o,
		Resilience: smartflux.HarnessConfig{
			RetryBackoff: 10 * time.Millisecond,
			RetrySeed:    seed + 23,
		},
	}
}

// runSpec selects one pipeline run.
type runSpec struct {
	w            workload
	seed         int64
	train, apply int
	traced       bool   // attach an observer with span sinks and time every processor
	probe        bool   // set-up probe: stop at the first wave
	workDir      string // parent of the run's WAL directory
}

// runOut is what one run measured.
type runOut struct {
	setupNs int64 // from preparing the run to its first wave
	rec     *recorder
	res     *smartflux.PipelineResult
	info    *smartflux.DurableRunInfo
	err     error // the pipeline call's error

	// Taken at the adaptive window's boundaries.
	alloc [2]uint64 // runtime.MemStats.TotalAlloc
	snaps [2]smartflux.MetricsSnapshot

	// Traced runs only.
	reg  *smartflux.MetricsRegistry
	sink *spanSink
}

// runPipeline performs one pipeline run. It returns an error when the run
// could not be prepared or an output check failed; a failed pipeline call is
// reported in runOut.err as well.
func runPipeline(spec runSpec) (*runOut, error) {
	out := &runOut{rec: newRecorder(spec.train, spec.apply, spec.traced)}
	rec := out.rec
	rec.abort = spec.probe
	var o *smartflux.RunObserver
	if spec.traced {
		out.reg = smartflux.NewMetricsRegistry()
		out.sink = newSpanSink()
		o = smartflux.NewRunObserver(out.reg).WithSpanSinks(out.sink)
	}
	boundary := 0
	rec.atWindow = func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		out.alloc[boundary] = ms.TotalAlloc
		out.snaps[boundary] = out.reg.Snapshot()
		if boundary == 0 && out.sink != nil {
			out.sink.from.Store(rec.now())
		}
		boundary++
	}

	start := rec.now()
	cfg := pipelineConfig(spec.seed, spec.train, spec.apply, o)
	build := rec.wrap(spec.w.build(spec.seed))
	report := []smartflux.StepID{spec.w.report}
	var rig *clusterRig
	if spec.w.walCluster {
		var err error
		if rig, err = startClusterRig(clusterShards, o); err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		defer rig.Close()
		cfg.Cluster = rig.client
		dir, err := os.MkdirTemp(spec.workDir, "wal-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		out.res, out.info, out.err = smartflux.RunPipelineDurable(build, report, cfg, smartflux.DurableOptions{
			Dir:           dir,
			SnapshotEvery: snapshotEvery,
			Fsync:         smartflux.FsyncCommit,
			Obs:           o,
		})
	} else {
		out.res, out.err = smartflux.RunPipeline(build, report, cfg)
	}
	if rec.firstCall != 0 {
		out.setupNs = rec.firstCall - start
	}
	if spec.probe {
		if !errors.Is(out.err, errAbort) {
			return nil, fmt.Errorf("set-up probe: want the probe's own stop, got %v", out.err)
		}
		return out, nil
	}
	if out.err != nil {
		return out, fmt.Errorf("pipeline: %w", out.err)
	}
	return out, checkRun(spec, out, rig)
}

// checkRun verifies a completed run's outputs.
func checkRun(spec runSpec, out *runOut, rig *clusterRig) error {
	res := out.res
	total := spec.train + spec.apply
	switch {
	case res.Train == nil || res.Train.Waves != spec.train:
		return fmt.Errorf("training phase did not run %d waves", spec.train)
	case res.Apply == nil || res.Apply.Waves != spec.apply:
		return fmt.Errorf("adaptive phase did not run %d waves", spec.apply)
	case len(out.rec.src[instLive]) != total || len(out.rec.src[instRef]) != total:
		return fmt.Errorf("source steps ran %d live and %d reference waves, want %d",
			len(out.rec.src[instLive]), len(out.rec.src[instRef]), total)
	case res.Train.TotalLiveExecutions() != res.Train.TotalSyncExecutions():
		return errors.New("training phase was not synchronous")
	case !res.Test.Accepted:
		return errors.New("the test phase rejected the model, so the adaptive phase ran synchronously")
	case res.Apply.Reports[spec.w.report] == nil:
		return fmt.Errorf("no error report for step %q", spec.w.report)
	}
	if !spec.w.walCluster {
		return nil
	}
	if got := out.info.Durable.Commits; got != total {
		return fmt.Errorf("WAL committed %d waves, want %d", got, total)
	}
	return rig.verify(out.rec.live)
}

// clusterRig is an in-process cluster: primaries, each with an attached
// follower, and a cluster client routing over them — what cmd/smartflux
// -cluster starts.
type clusterRig struct {
	nodes  []*cluster.Node
	client *cluster.Client
}

// startClusterRig brings up shards primary+follower pairs and a client
// reporting to o (nil for none).
func startClusterRig(shards int, o *smartflux.RunObserver) (*clusterRig, error) {
	rig := &clusterRig{}
	addrs := make([]string, shards)
	for s := range addrs {
		p, err := cluster.NewNode(cluster.NodeConfig{Label: fmt.Sprintf("shard%d", s)})
		if err != nil {
			rig.Close()
			return nil, err
		}
		rig.nodes = append(rig.nodes, p)
		addrs[s] = p.Addr()
	}
	m := cluster.NewMap(addrs)
	for s := range addrs {
		f, err := cluster.NewNode(cluster.NodeConfig{Label: fmt.Sprintf("shard%d-replica", s)})
		if err != nil {
			rig.Close()
			return nil, err
		}
		rig.nodes = append(rig.nodes, f)
		if err := rig.nodes[s].AttachFollower(f.Addr()); err != nil {
			rig.Close()
			return nil, err
		}
		if err := m.SetReplica(s, f.Addr()); err != nil {
			rig.Close()
			return nil, err
		}
	}
	cfg := cluster.Config{Map: m, Obs: o}
	cfg.Client.Obs = o
	c, err := cluster.New(cfg)
	if err != nil {
		rig.Close()
		return nil, err
	}
	rig.client = c
	return rig, nil
}

// Close stops the client and every node; safe on a partial rig.
func (r *clusterRig) Close() {
	if r.client != nil {
		_ = r.client.Close() // teardown: the run's result is already checked
	}
	for _, n := range r.nodes {
		_ = n.Close()
	}
}

// verify checks that no mirror ship failed and that the cluster's merged
// dump — every cell version with its logical timestamp — is bit-identical to
// the live store.
func (r *clusterRig) verify(live *smartflux.Store) error {
	if err := r.client.Err(); err != nil {
		return fmt.Errorf("cluster mirror ship failed: %w", err)
	}
	var want, got bytes.Buffer
	for _, name := range live.TableNames() {
		tbl, err := live.Table(name)
		if err != nil {
			return err
		}
		for _, c := range tbl.Scan(smartflux.ScanOptions{}) {
			for _, v := range tbl.GetVersions(c.Row, c.Column, 0) {
				fmt.Fprintf(&want, "%s %s/%s @%d = %x\n", name, c.Row, c.Column, v.Timestamp, v.Value)
			}
		}
		cs, err := r.client.ScanVersions(name, smartflux.ScanOptions{})
		if err != nil {
			return fmt.Errorf("cluster scan %s: %w", name, err)
		}
		for _, c := range cs {
			fmt.Fprintf(&got, "%s %s/%s @%d = %x\n", name, c.Row, c.Column, c.Version.Timestamp, c.Version.Value)
		}
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		return errors.New("cluster merged dump differs from the live store")
	}
	return nil
}
