//go:build race

package components

const raceEnabled = true
