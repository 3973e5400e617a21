//go:build !race

package server

const RaceEnabled = false
