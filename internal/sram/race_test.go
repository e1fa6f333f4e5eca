//go:build race

package sram

// raceEnabled reports a -race build, whose instrumentation distorts
// wall-clock gates.
const raceEnabled = true
