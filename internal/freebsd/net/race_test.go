//go:build race

package bsdnet

func init() { raceEnabled = true }
