//go:build oskitrefdebug

package evalrig

func init() { refDebug = true }
