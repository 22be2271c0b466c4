//go:build !race

package graph_test

// raceEnabled is false in a non-race build; see race_on_test.go.
const raceEnabled = false
