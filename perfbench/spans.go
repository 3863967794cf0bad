package main

// Span-tree analysis of a traced pass: self time per span, a self-time
// rollup per span name, and lookups by name. Only the benchmark's own
// files read the tree; the program's spans are used as exported.

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/obs/span"
)

// spanNode is one exported span with its links and self time.
type spanNode struct {
	span.Span
	parent   *spanNode
	children []*spanNode
	selfUS   float64 // wall duration minus the children's wall durations
}

// attr returns the span's attribute value for key ("" when absent).
func (n *spanNode) attr(key string) string {
	for _, a := range n.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// attrUint parses a numeric attribute (0 when absent or malformed).
func (n *spanNode) attrUint(key string) uint64 {
	v, _ := strconv.ParseUint(n.attr(key), 10, 64)
	return v
}

// spanForest indexes an export by span name.
type spanForest struct {
	byName map[string][]*spanNode
}

// buildForest links the exported spans and computes self times. A span's
// self time is its wall duration minus the part covered by its
// children's wall durations (clipped at zero); spans the program stamps
// only with interaction counts have no wall time and no self time.
func buildForest(spans []span.Span) spanForest {
	f := spanForest{byName: map[string][]*spanNode{}}
	var walk func(n *span.Node, parent *spanNode)
	walk = func(n *span.Node, parent *spanNode) {
		sn := &spanNode{Span: n.Span, parent: parent}
		if parent != nil {
			parent.children = append(parent.children, sn)
		}
		f.byName[sn.Name] = append(f.byName[sn.Name], sn)
		var covered float64
		for _, c := range n.Children {
			walk(c, sn)
			covered += float64(c.Span.WallDurUS)
		}
		if self := float64(sn.WallDurUS) - covered; self > 0 {
			sn.selfUS = self
		}
	}
	for _, t := range span.BuildTrees(spans) {
		for _, root := range t.Roots {
			walk(root, nil)
		}
	}
	return f
}

// named returns every span with the given name.
func (f spanForest) named(name string) []*spanNode { return f.byName[name] }

// printRollup prints, per span name, the span count, the total wall and
// self time, and the total logical (interaction) interval.
func (f spanForest) printRollup() {
	names := make([]string, 0, len(f.byName))
	self := map[string]float64{}
	for name, ns := range f.byName {
		names = append(names, name)
		for _, n := range ns {
			self[name] += n.selfUS
		}
	}
	sort.Slice(names, func(i, j int) bool {
		if self[names[i]] != self[names[j]] {
			return self[names[i]] > self[names[j]]
		}
		return names[i] < names[j]
	})
	fmt.Printf("span rollup: %-16s %8s %14s %14s %16s\n", "name", "count", "wall_ms", "self_ms", "interactions")
	for _, name := range names {
		var wall float64
		var seq uint64
		for _, n := range f.byName[name] {
			wall += float64(n.WallDurUS)
			if n.EndSeq > n.StartSeq {
				seq += n.EndSeq - n.StartSeq
			}
		}
		fmt.Printf("span rollup: %-16s %8d %14.3f %14.3f %16d\n", name, len(f.byName[name]), wall/1e3, self[name]/1e3, seq)
	}
}
