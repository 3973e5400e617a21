//go:build race

package disk

const raceEnabled = true
