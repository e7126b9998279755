//go:build !race

package vtime

const raceEnabled = false
