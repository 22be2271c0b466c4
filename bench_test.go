package hydee_test

// Figure 5's ping-pong sweep and the DESIGN.md ablations, each reporting
// the reproduced quantities via b.ReportMetric so `go test -bench` output
// doubles as an experiment record. The other experiments are timed by the
// repository benchmark's workloads and the cmd/ drivers, the hot paths by
// the layers' own benchmarks (`make bench`, `make bench-layers`).

import (
	"context"
	"testing"

	"hydee"
	"hydee/internal/apps"
	"hydee/internal/core"
	"hydee/internal/rollback"
)

// engineRun builds an engine from opts and runs prog on it once.
func engineRun(b *testing.B, prog hydee.Program, opts ...hydee.Option) *hydee.Result {
	b.Helper()
	eng, err := hydee.New(opts...)
	if err != nil {
		b.Fatal(err)
	}
	res, err := eng.Run(context.Background(), prog)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFigure5_NetPIPE regenerates Figure 5: the three ping-pong sweeps
// over the Myrinet 10G model.
func BenchmarkFigure5_NetPIPE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := hydee.Figure5(context.Background(), nil, nil, 5)
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, r := range rows {
			if r.LatRedNoLogPct < worst {
				worst = r.LatRedNoLogPct
			}
		}
		b.ReportMetric(-worst, "worst-degradation-%")
	}
}

// BenchmarkAblation_GC compares the peak sender-log occupancy with and
// without the garbage collection of §III-E (DESIGN.md ablation).
func BenchmarkAblation_GC(b *testing.B) {
	assign := []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3}
	run := func(disable bool) int64 {
		prot := core.New()
		if disable {
			prot = core.NewWithOptions(core.Options{Name: "hydee-nogc", DisableGC: true})
		}
		res := engineRun(b, hydee.StencilProgram(20, 64*1024),
			hydee.WithTopology(hydee.NewTopology(assign)), hydee.WithProtocol(prot),
			hydee.WithModel(hydee.Myrinet10G()), hydee.WithCheckpointEvery(2))
		return res.Totals.LogPeakBytes
	}
	for i := 0; i < b.N; i++ {
		withGC := run(false)
		withoutGC := run(true)
		b.ReportMetric(float64(withGC)/1e6, "gc-peak-MB")
		b.ReportMetric(float64(withoutGC)/1e6, "nogc-peak-MB")
	}
}

// BenchmarkAblation_Piggyback measures the failure-free cost of the phase
// piggybacking alone (HydEE single cluster: no logging, only protocol data)
// against native, on a small-message-heavy workload.
func BenchmarkAblation_Piggyback(b *testing.B) {
	run := func(prot rollback.Protocol) float64 {
		res := engineRun(b, hydee.StencilProgram(10, 256),
			hydee.WithRanks(16), hydee.WithProtocol(prot), hydee.WithModel(hydee.Myrinet10G()))
		return float64(res.Makespan)
	}
	for i := 0; i < b.N; i++ {
		nat := run(rollback.Native())
		hyd := run(core.New())
		b.ReportMetric((hyd/nat-1)*100, "piggyback-ovh-%")
	}
}

// BenchmarkAblation_SSDLogging evaluates the §V-C future-work design:
// logging through a bounded memory staging buffer drained asynchronously to
// a local device, at several device bandwidths, on the logging-heaviest
// kernel (FT). The overhead versus in-memory logging shows when the device
// becomes the bottleneck.
func BenchmarkAblation_SSDLogging(b *testing.B) {
	ft, err := apps.Get("ft")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := ft.Make(apps.Params{NP: 16, Iters: 2})
	if err != nil {
		b.Fatal(err)
	}
	assign := []int{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1}
	run := func(drainBPS float64) float64 {
		opts := core.Options{}
		if drainBPS > 0 {
			opts = core.Options{Name: "hydee-ssd", LogDrainBPS: drainBPS, LogMemBudget: 8 << 20}
		}
		res := engineRun(b, prog, hydee.WithTopology(hydee.NewTopology(assign)),
			hydee.WithProtocol(core.NewWithOptions(opts)), hydee.WithModel(hydee.Myrinet10G()))
		return float64(res.Makespan)
	}
	for i := 0; i < b.N; i++ {
		mem := run(0)
		fast := run(2e9)   // NVMe-class device
		slow := run(0.1e9) // slow SATA-class device
		b.ReportMetric((fast/mem-1)*100, "nvme-ovh-%")
		b.ReportMetric((slow/mem-1)*100, "sata-ovh-%")
	}
}
