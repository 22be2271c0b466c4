//go:build race

package graph_test

// raceEnabled reports that this binary was built with the race detector;
// the oracle skips the np=256 kernel traces under it (the detector makes
// them ~10x slower, and the partitioner's pool is already raced at np 16
// and 64).
const raceEnabled = true
