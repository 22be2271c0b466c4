//go:build !race

package mpi

// raceEnabled is false in a non-race build; see race_on_test.go.
const raceEnabled = false
