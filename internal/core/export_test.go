package core

import (
	"giantsan/internal/report"
	"giantsan/internal/vmem"
)

// Fault exposes the segment-stride error walk to the external test
// package, whose small models need the rt allocators.
func (g *Sanitizer) Fault(l, r vmem.Addr, t report.AccessType) *report.Error {
	return g.fault(l, r, t)
}

// FaultRef is the byte-at-a-time error walk fault replaced, kept as the
// reference the differential suite compares it with: every byte of
// [l, r) is classified on its own until one is unaddressable.
func (g *Sanitizer) FaultRef(l, r vmem.Addr, t report.AccessType) *report.Error {
	g.stats.Errors++
	for a := l; a < r; a++ {
		if !g.sh.Contains(a) {
			return &report.Error{Kind: report.WildAccess, Access: t, Addr: a, Size: r - l, Detector: g.Name()}
		}
		code := g.sh.Load(a)
		if code > CodeMaxFolded {
			if IsPartial(code) {
				if int(a&7) < PartialK(code) {
					continue // byte addressable within the partial prefix
				}
			}
			return &report.Error{Kind: errorKind(code), Access: t, Addr: a, Size: r - l, Detector: g.Name()}
		}
	}
	return &report.Error{Kind: report.WildAccess, Access: t, Addr: l, Size: r - l, Detector: g.Name(), Context: "check/encoding disagreement"}
}
