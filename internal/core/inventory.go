package core

import (
	"fmt"
	"io"
	"sort"
)

// Kind classifies a component's provenance, matching the structure of
// Figure 1 and Table 3 of the paper: native kit code, thin glue, or
// donor-style encapsulated code.
type Kind int

// Component provenance kinds.
const (
	KindNative Kind = iota
	KindGlue
	KindEncapsulated
)

// String names the kind.
func (k Kind) String() string { return [...]string{"native", "glue", "encapsulated"}[k] }

// Component is one entry in the kit's structural inventory.
type Component struct {
	// Name is the library name, following Table 3 of the paper
	// ("boot", "kern", "lmm", "freebsd_net", …).
	Name string
	// Dir is the repository directory holding the component.
	Dir string
	// Kind is the provenance class.
	Kind Kind
	// MachineDep is true for components tied to the (simulated) x86 PC.
	MachineDep bool
	// Glue lists an encapsulated component's glue files, the only ones
	// that may speak COM; its other files are donor code, which imports
	// nothing from com, hw, core or libc (structure_test.go).
	Glue []string
	// Desc is the one-line description printed in structure dumps.
	Desc string
}

// Inventory is the kit's component list, mirroring Table 3 row for row
// (minus the paper's in-progress X11 row and its math library, per
// DESIGN.md §6), plus every package a component imports.
// cmd/oskit-graph renders it as Figure 1 with edges read from the
// imports; cmd/oskit-sizes joins it with source-line counts to
// regenerate Table 3.
var Inventory = []Component{
	{Name: "boot", Dir: "internal/boot", Kind: KindNative, MachineDep: true, Desc: "Bootstrap support (MultiBoot-style images and modules)"},
	{Name: "kern", Dir: "internal/kern", Kind: KindNative, MachineDep: true, Desc: "Kernel support library"},
	{Name: "smp", Dir: "internal/smp", Kind: KindNative, MachineDep: true, Desc: "Multiprocessor support"},
	{Name: "lmm", Dir: "internal/lmm", Kind: KindNative, MachineDep: false, Desc: "List memory manager"},
	{Name: "amm", Dir: "internal/amm", Kind: KindNative, MachineDep: false, Desc: "Address map manager"},
	{Name: "c", Dir: "internal/libc", Kind: KindNative, MachineDep: false, Desc: "Minimal C library"},
	{Name: "memdebug", Dir: "internal/memdebug", Kind: KindNative, MachineDep: false, Desc: "Malloc debugging"},
	{Name: "diskpart", Dir: "internal/diskpart", Kind: KindNative, MachineDep: false, Desc: "Disk partitioning"},
	{Name: "fsread", Dir: "internal/fsread", Kind: KindNative, MachineDep: false, Desc: "File system reading"},
	{Name: "exec", Dir: "internal/exec", Kind: KindNative, MachineDep: false, Desc: "Program loading"},
	{Name: "com", Dir: "internal/com", Kind: KindNative, MachineDep: false, Desc: "COM interfaces and support"},
	{Name: "stats", Dir: "internal/stats", Kind: KindNative, MachineDep: false, Desc: "Statistics component (kstat-style counters exported as com.Stats)"},
	{Name: "core", Dir: "internal/core", Kind: KindNative, MachineDep: false, Desc: "Component framework (osenv, registry, execution models)"},
	{Name: "hw", Dir: "internal/hw", Kind: KindNative, MachineDep: true, Desc: "Simulated PC platform (substitution substrate)"},
	{Name: "cksum", Dir: "internal/cksum", Kind: KindNative, MachineDep: false, Desc: "Internet checksum kernel (RFC 1071, eight bytes at a time)"},
	{Name: "fdev", Dir: "internal/dev", Kind: KindNative, MachineDep: false, Desc: "Device driver support"},
	{Name: "gdb", Dir: "internal/gdb", Kind: KindNative, MachineDep: true, Desc: "GDB remote-protocol stub"},
	{Name: "linux_dev", Dir: "internal/linux/dev", Kind: KindGlue, MachineDep: true, Desc: "Linux driver glue"},
	{Name: "linux_legacy", Dir: "internal/linux/legacy", Kind: KindEncapsulated, MachineDep: true, Desc: "Linux-style drivers and skbuffs (donor code)"},
	{Name: "linux_net", Dir: "internal/linux/net", Kind: KindEncapsulated, MachineDep: false, Glue: []string{"socket.go"}, Desc: "Linux-style TCP/IP (baseline stack)"},
	{Name: "freebsd_glue", Dir: "internal/freebsd/glue", Kind: KindGlue, MachineDep: false, Desc: "FreeBSD environment emulation (curproc, sleep/wakeup, malloc)"},
	{Name: "freebsd_dev", Dir: "internal/freebsd/dev", Kind: KindGlue, MachineDep: true, Desc: "FreeBSD character drivers and support"},
	{Name: "freebsd_net", Dir: "internal/freebsd/net", Kind: KindEncapsulated, MachineDep: false, Glue: []string{"stack.go", "socket.go", "sendfile.go", "nativedrv.go", "locks.go"}, Desc: "FreeBSD-style TCP/IP network stack"},
	{Name: "netbsd_fs", Dir: "internal/netbsd/fs", Kind: KindEncapsulated, MachineDep: false, Glue: []string{"glue.go", "sendfile.go"}, Desc: "NetBSD-style FFS file system"},
	{Name: "kvm", Dir: "internal/kvm", Kind: KindNative, MachineDep: false, Desc: "Bytecode VM (language-runtime case study)"},
	{Name: "bmfs", Dir: "internal/bmfs", Kind: KindNative, MachineDep: false, Desc: "Boot-module RAM file system"},
	{Name: "faults", Dir: "internal/faults", Kind: KindNative, MachineDep: false, Desc: "Deterministic fault-injection plane (disk, wire, NIC, clock, allocator)"},
	{Name: "httpd", Dir: "internal/httpd", Kind: KindNative, MachineDep: false, Desc: "HTTP/1.1 static file server over the POSIX layer"},
	{Name: "evalrig", Dir: "internal/evalrig", Kind: KindNative, MachineDep: false, Desc: "Evaluation testbed (Tables 1-2 configurations)"},
}

// WriteStructure renders the Figure 1 structure: the client OS on top,
// native and glue components in the middle, encapsulated donor code
// shaded at the bottom, with the edges given (component name to the
// components it imports).
func WriteStructure(w io.Writer, edges map[string][]string) {
	byKind := map[Kind][]Component{}
	for _, c := range Inventory {
		byKind[c.Kind] = append(byKind[c.Kind], c)
	}
	fmt.Fprintln(w, "Client Operating System or Language Run-Time System")
	fmt.Fprintln(w, "====================================================")
	for _, k := range []Kind{KindNative, KindGlue, KindEncapsulated} {
		list := byKind[k]
		sort.Slice(list, func(i, j int) bool { return list[i].Name < list[j].Name })
		fmt.Fprintf(w, "[%s]\n", k)
		for _, c := range list {
			fmt.Fprintf(w, "  %-14s %s\n", c.Name, c.Desc)
			if len(edges[c.Name]) > 0 {
				fmt.Fprintf(w, "  %-14s -> %v\n", "", edges[c.Name])
			}
		}
	}
}
