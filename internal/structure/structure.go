// Package structure reads the kit's structure from its source: Figure
// 1's edges and the components a program links are computed from the
// import lists of non-test files (go/build, offline) joined with
// core.Inventory, so no dependency list is kept by hand.
package structure

import (
	"fmt"
	"go/build"
	"path/filepath"
	"slices"
	"strings"

	"oskit/internal/core"
)

// Imports returns the inventory components that the package in
// root/dir imports.  Every kit package it imports must be one.
func Imports(root, dir string) ([]core.Component, error) {
	p, err := build.ImportDir(filepath.Join(root, dir), 0)
	if err != nil {
		return nil, err
	}
	var out []core.Component
	for _, path := range p.Imports {
		if !strings.HasPrefix(path, "oskit/") {
			continue
		}
		i := slices.IndexFunc(core.Inventory, func(c core.Component) bool { return "oskit/"+c.Dir == path })
		if i < 0 {
			return nil, fmt.Errorf("%s imports %s, which is no inventory row", dir, path)
		}
		out = append(out, core.Inventory[i])
	}
	return out, nil
}

// Edges returns each inventory component's imports, by name.
func Edges(root string) (map[string][]string, error) {
	edges := map[string][]string{}
	for _, c := range core.Inventory {
		deps, err := Imports(root, c.Dir)
		if err != nil {
			return nil, err
		}
		for _, d := range deps {
			edges[c.Name] = append(edges[c.Name], d.Name)
		}
	}
	return edges, nil
}

// Closure returns the names of the inventory components that the
// package in root/dir links, directly or not.
func Closure(root, dir string) (map[string]bool, error) {
	in := map[string]bool{}
	var walk func(dir string) error
	walk = func(dir string) error {
		deps, err := Imports(root, dir)
		for _, d := range deps {
			if err == nil && !in[d.Name] {
				in[d.Name] = true
				err = walk(d.Dir)
			}
		}
		return err
	}
	return in, walk(dir)
}
