//go:build !race

package lmonp

const raceEnabled = false
