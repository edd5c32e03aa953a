//go:build race

package localfs

// raceEnabled gates the AllocsPerRun guard: race instrumentation
// defeats escape analysis, so allocation counts are not meaningful
// under -race.
const raceEnabled = true
