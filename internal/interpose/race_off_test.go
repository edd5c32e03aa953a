//go:build !race

package interpose

const raceEnabled = false
