//go:build race

package mpi

// raceEnabled reports that this binary was built with the race detector,
// under which sync.Pool drops a share of what it is given back, so a
// steady state that recycles through one allocates anyway.
const raceEnabled = true
