//go:build !race

package expt

const raceEnabled = false
