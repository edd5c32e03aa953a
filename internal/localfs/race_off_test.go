//go:build !race

package localfs

const raceEnabled = false
