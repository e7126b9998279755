//go:build !race

package iccl

const raceEnabled = false
