package harness

import (
	"fmt"
	"strings"
)

// FormatTable1 renders Table I like the paper.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %10s %24s %26s\n", "App", "Nb Clusters", "Avg % Ranks to Roll Back", "Log/Total Amount of Data")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %10d %23.2f%% %12.0f/%.0f GB (%.2f%%)\n",
			strings.ToUpper(r.App), r.K, r.RollbackPct, r.LoggedGB, r.TotalGB, r.LoggedPct)
	}
	return b.String()
}

// FormatFigure5 renders the two Figure 5 series as columns.
func FormatFigure5(rows []Fig5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %12s %14s %14s %14s %14s\n",
		"Bytes", "NativeLat(µs)", "LatRed-noLog%", "LatRed-log%", "BWRed-noLog%", "BWRed-log%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10d %12.2f %14.2f %14.2f %14.2f %14.2f\n",
			r.Bytes, r.NativeLatUs, r.LatRedNoLogPct, r.LatRedLogPct, r.BWRedNoLogPct, r.BWRedLogPct)
	}
	return b.String()
}

// FormatFigure6 renders the normalized execution times of Figure 6.
func FormatFigure6(rows []Fig6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %10s %12s %12s %12s %12s\n",
		"App", "Native", "MsgLog", "HydEE", "MsgLog ovh", "HydEE ovh")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %10s %12.4f %12.4f %11.2f%% %11.2f%%\n",
			strings.ToUpper(r.App), "1.0000", r.MLogNorm, r.HydEENorm, r.MLogPct, r.HydEEPct)
	}
	return b.String()
}

// FormatE4 renders the containment comparison.
func FormatE4(rows []E4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-7s %14s %14s %14s %12s\n",
		"App", "Proto", "RolledBack", "RecoveryVT", "Makespan", "Overhead")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %-7s %13.2f%% %14s %14s %11.2f%%\n",
			strings.ToUpper(r.App), r.Proto, r.RolledBackPct, r.RecoveryVT, r.MakespanVT, r.OverheadPct)
	}
	return b.String()
}

// FormatE5 renders the checkpoint-burst comparison.
func FormatE5(rows []E5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %14s %14s %14s\n", "Config", "MaxQueue", "Makespan", "CkptBytes")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %14s %14s %14d\n", r.Config, r.MaxQueue, r.Makespan, r.CkptBytes)
	}
	return b.String()
}

// FormatE6 renders the shard-loss redundancy comparison. Aborted rows
// print "lost" with dashes for the observables a dead run does not have.
func FormatE6(rows []E6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %7s %5s %9s %14s %14s %10s %14s %9s\n",
		"Config", "Shards", "Lost", "Outcome", "CleanVT", "FaultVT", "Overhead", "PhysBytes", "DegLoads")
	for _, r := range rows {
		if !r.Survived {
			fmt.Fprintf(&b, "%-12s %7d %5d %9s %14s %14s %10s %14d %9s\n",
				r.Config, r.Shards, r.Lost, "lost", r.CleanVT, "-", "-", r.PhysBytes, "-")
			continue
		}
		fmt.Fprintf(&b, "%-12s %7d %5d %9s %14s %14s %9.2f%% %14d %9d\n",
			r.Config, r.Shards, r.Lost, "recovered", r.CleanVT, r.FaultVT, r.OverheadPct, r.PhysBytes, r.DegradedLoads)
	}
	return b.String()
}
