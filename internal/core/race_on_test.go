//go:build race

package core

// raceEnabled reports a race-detector build, whose instrumentation
// changes what allocation budgets measure.
const raceEnabled = true
