//go:build oskitrefdebug

package hw

// haltFaults: under oskitrefdebug a halted machine's memory stays mapped
// with no access rights, so touching it faults (see unmapMem).
const haltFaults = true
