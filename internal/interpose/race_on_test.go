//go:build race

package interpose

// raceEnabled gates the AllocsPerRun guards: race instrumentation
// defeats escape analysis and randomizes sync.Pool, so allocation
// counts are not meaningful under -race. `make ci` runs this package in
// plain mode as well, so the guards still gate.
const raceEnabled = true
