//go:build race

package evalrig

func init() { raceEnabled = true }
