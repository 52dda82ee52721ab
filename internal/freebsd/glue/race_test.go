//go:build race

package bsdglue

func init() { raceEnabled = true }
