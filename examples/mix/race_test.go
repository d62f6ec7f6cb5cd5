//go:build race

package main

// raceEnabled reports a -race build, whose instrumentation makes this
// example's runs too slow for go test -race.
const raceEnabled = true
