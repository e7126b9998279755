//go:build !race

package proctab

const raceEnabled = false
