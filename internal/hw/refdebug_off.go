//go:build !oskitrefdebug

package hw

// haltFaults selects what Halt does with a machine's memory: unmap it
// (here), or keep it mapped with no access rights (oskitrefdebug).
const haltFaults = false
