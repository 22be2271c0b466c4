package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hydee"
)

// fig6Workload regenerates the paper's Figure 6 sweep: every NAS kernel
// under native, full message logging and HydEE, failure-free, through the
// harness worker pool. The clustering (a traced native run per kernel plus
// the partitioning tool) is its set-up. The sweep itself is fixed; the
// seed picks the kernels' compute scale, which moves every virtual time
// but not one message, so the simulated work is the same for every seed.
func fig6Workload(e env) (*job, error) {
	np, iters, traceIters := 256, 3, 2
	if e.tiny {
		np, iters = 16, 2
	}
	rng := rand.New(rand.NewSource(e.seed))
	params := hydee.KernelParams{NP: np, Iters: iters, ComputeScale: 1 + float64(rng.Intn(21)-10)/100}
	layer := map[string]float64{}

	var clusterings map[string][]int
	if e.tr == nil {
		var err error
		if clusterings, _, err = hydee.Clusterings(np, traceIters); err != nil {
			return nil, err
		}
	} else {
		// The same two steps hydee.Clusterings takes, apart, so the
		// partitioning tool's own time shows.
		var traces []hydee.ExperimentSpec
		for _, k := range hydee.Kernels() {
			traces = append(traces, hydee.ExperimentSpec{Kernel: k, Params: hydee.KernelParams{NP: np, Iters: traceIters}, Proto: hydee.ProtoNative})
		}
		sums, err := hydee.RunExperiments(context.Background(), traces, 0)
		if err != nil {
			return nil, err
		}
		clusterings = make(map[string][]int)
		id := e.tr.begin("graph.cluster", -1, 0)
		t0 := time.Now()
		for i, k := range hydee.Kernels() {
			g := hydee.CommGraphFromPairBytes(np, sums[i].PairBytes)
			clusterings[k.Name] = hydee.Cluster(g, hydee.DefaultClusterOptions()).Assign
		}
		layer["graph.cluster_ms_np256"] = ms(time.Since(t0))
		e.tr.end(id)
	}

	var specs []hydee.ExperimentSpec
	for _, k := range hydee.Kernels() {
		for _, proto := range []hydee.ExperimentProto{hydee.ProtoNative, hydee.ProtoMLog, hydee.ProtoHydEE} {
			specs = append(specs, hydee.ExperimentSpec{Kernel: k, Params: params, Proto: proto, Assign: clusterings[k.Name]})
		}
	}
	workers := benchProcs()

	return &job{run: func() (*outcome, error) {
		o := &outcome{Attempted: len(specs), Counts: map[string]int64{}, Layer: layer}
		ctx := context.Background()
		var stamps *sweepStamps
		if e.stamped {
			stamps = &sweepStamps{start: map[int64]time.Time{}}
			ctx = hydee.ContextWithObserver(ctx, stamps)
		}
		var (
			sums []*hydee.ExperimentSummary
			err  error
		)
		t0 := time.Now()
		if e.tr == nil {
			sums, err = hydee.RunExperiments(ctx, specs, workers)
		} else {
			sums, err = runSpecsTraced(e.tr, specs, workers, layer)
		}
		wall := time.Since(t0)
		o.JobMS = []float64{ms(wall)}
		if err != nil {
			o.Failed = len(specs)
			o.Errors = append(o.Errors, fmt.Sprintf("sweep: %v", err))
			return o, nil
		}
		h := sha256.New()
		for i, s := range sums {
			digestSummary(h, s)
			o.Msgs += s.Totals.AppDelivers
			countsOf(o.Counts, s.Totals, s.Rounds, s.Store)
			// The three protocols run the same application: a protocol that
			// changes a result is wrong.
			if native := sums[i-i%3]; fmt.Sprint(s.Digests) != fmt.Sprint(native.Digests) {
				o.fail("%s/%s results differ from the native run's", s.App, s.Proto)
			}
		}
		o.VTDigest = hexDigest(h.Sum(nil))
		o.Counts["harness.runs"] = int64(len(sums))
		if stamps != nil {
			layer["harness.pool_idle_share"] = 1 - stamps.busy.Seconds()/(float64(workers)*wall.Seconds())
		}
		return o, nil
	}}, nil
}

// sweepStamps records, for a sweep run through the real harness pool, how
// long each run occupied a worker (run-start to run-complete in host
// time). The context observer sees the runs of all workers interleaved.
type sweepStamps struct {
	mu    sync.Mutex
	start map[int64]time.Time
	busy  time.Duration
}

func (s *sweepStamps) OnEvent(ev hydee.RunEvent) {
	switch ev.Kind {
	case hydee.EvRunStart:
		s.mu.Lock()
		s.start[ev.Run] = time.Now()
		s.mu.Unlock()
	case hydee.EvRunComplete, hydee.EvRunAbort:
		s.mu.Lock()
		s.busy += time.Since(s.start[ev.Run])
		s.mu.Unlock()
	}
}

// runSpecsTraced is the traced pass's stand-in for the harness pool: the
// harness builds each run's configuration itself and takes no protocol,
// store or observer, so to put the timing wrappers around a sweep's runs
// the benchmark resolves each spec the way harness.RunCtx does and runs it
// on an Engine. The virtual-time digest of the summaries it returns must
// equal the untraced sweep's, which is what shows the stand-in and the
// wrappers change nothing simulated.
func runSpecsTraced(tr *tracer, specs []hydee.ExperimentSpec, workers int, layer map[string]float64) ([]*hydee.ExperimentSummary, error) {
	sweep := tr.begin("harness.sweep", -1, 0)
	defer tr.end(sweep)
	sums := make([]*hydee.ExperimentSummary, len(specs))
	errs := make([]error, len(specs))
	walls := make([]time.Duration, len(specs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t0 := time.Now()
				sums[i], errs[i] = runSpecTraced(tr, sweep, specs[i])
				walls[i] = time.Since(t0)
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("spec %d: %w", i, err)
		}
		if specs[i].Proto == hydee.ProtoNative {
			layer["apps.run_wall_ms_"+specs[i].Kernel.Name] = ms(walls[i])
		}
	}
	coreLayer(tr, tr.spanStats(), layer, float64(tr.agg("apps.rank_wall").Sum))
	return sums, nil
}

func runSpecTraced(tr *tracer, parent int, s hydee.ExperimentSpec) (*hydee.ExperimentSummary, error) {
	np := s.Params.NP
	var (
		topo *hydee.Topology
		prot hydee.Protocol
	)
	switch s.Proto {
	case hydee.ProtoNative:
		topo, prot = hydee.SingleCluster(np), hydee.Native()
	case hydee.ProtoMLog:
		topo, prot = hydee.Singletons(np), hydee.MessageLogging()
	case hydee.ProtoHydEE:
		topo, prot = hydee.NewTopology(s.Assign), hydee.HydEE()
	default:
		return nil, fmt.Errorf("benchmark: no traced stand-in for proto %v", s.Proto)
	}
	prog, err := s.Kernel.Make(s.Params)
	if err != nil {
		return nil, err
	}
	rt := tr.newRunTrace(np)
	eng, err := hydee.New(
		hydee.WithTopology(topo),
		hydee.WithModel(hydee.Myrinet10G()),
		hydee.WithProtocol(rt.wrapProtocol(prot)), // the sweep checkpoints nothing and fails nothing
	)
	if err != nil {
		return nil, err
	}
	rt.start("run:"+s.Kernel.Name+"/"+s.Proto.String(), parent)
	res, err := eng.Run(context.Background(), rt.timeRanks(prog))
	rt.finish()
	if err != nil {
		return nil, err
	}
	return &hydee.ExperimentSummary{
		App: s.Kernel.Name, Proto: s.Proto.String(), NP: np,
		Makespan: res.Makespan, Totals: res.Totals, Rounds: res.Rounds,
		Store: res.StoreStats, Digests: res.Results,
	}, nil
}
