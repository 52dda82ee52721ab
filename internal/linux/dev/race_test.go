//go:build race

package linuxdev

func init() { raceEnabled = true }
