// Package lint implements hydee's determinism analyzers: the invariants
// DESIGN.md states in prose — no wall clock in the virtual-time plane,
// sorted iteration where map order could leak into emitted events, the
// *Locked mutex discipline, and no order-sensitive multi-case selects —
// encoded as static checks so a violation fails `make lint` instead of
// flaking (or worse, not flaking) in the run-it-twice determinism gate.
//
// The analyzers are written against internal/lint/analysis, a
// self-contained mirror of golang.org/x/tools/go/analysis, and run via
// cmd/hydee-lint.
//
// # Suppressions
//
// Every analyzer honors the annotation
//
//	//hydee:allow <analyzer>(<reason>)
//
// placed on the flagged line or the line directly above it. The reason
// is mandatory — an empty reason does not suppress — and should say why
// the invariant holds anyway (e.g. a wall-clock timer that is a liveness
// knob with no virtual-time effect). One annotation suppresses one
// analyzer on one line; repeat the comment to suppress several.
package lint

import (
	"go/token"
	"regexp"
	"strings"

	"hydee/internal/lint/analysis"
)

// Analyzers returns the full hydee suite in a stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{Wallclock, Maprange, Lockdiscipline, Selectorder}
}

// deterministicPkgs is the virtual-time plane: packages whose outputs
// must be byte-reproducible run to run. The wallclock, maprange and
// selectorder analyzers only fire here; host-plane code (cmd binaries,
// the HTTP server) keeps its wall clock.
var deterministicPkgs = map[string]bool{
	"hydee":                     true, // engine root: Run, experiments, exporters, failure specs
	"hydee/internal/transport":  true,
	"hydee/internal/mpi":        true,
	"hydee/internal/core":       true,
	"hydee/internal/vtime":      true,
	"hydee/internal/netmodel":   true,
	"hydee/internal/checkpoint": true,
	"hydee/internal/erasure":    true, // pure codec: no clocks, no maps, no rand
	"hydee/internal/graph":      true, // workload generation: seeded rand only
	"hydee/internal/apps":       true,
	"hydee/internal/failure":    true, // decides at which interaction point a victim dies
	"hydee/internal/rollback":   true, // protocol framework and both baselines' engines
	"hydee/internal/idtab":      true, // peer tables behind HydEE's protocol state
	"hydee/internal/trace":      true, // feeds the send-determinism checks
}

// deterministicPkg reports whether the pass's package is in the
// virtual-time plane. Testdata packages opt in by naming themselves with
// a "_det" suffix — they load with no module context, so their path is
// their package name (see load.Dir).
func deterministicPkg(pass *analysis.Pass) bool {
	return deterministicPkgs[pass.Pkg.Path()] || strings.HasSuffix(pass.Pkg.Path(), "_det")
}

// allowRe matches one suppression: //hydee:allow name(reason). The
// reason group deliberately requires at least one character.
var allowRe = regexp.MustCompile(`^//hydee:allow\s+([A-Za-z]+)\(\s*(.+?)\s*\)\s*$`)

// allowlist indexes every //hydee:allow annotation in a pass:
// filename -> line -> analyzer names suppressed on that line.
type allowlist map[string]map[int][]string

func buildAllowlist(pass *analysis.Pass) allowlist {
	idx := allowlist{}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pass.Fset.Position(c.Pos())
				byLine := idx[pos.Filename]
				if byLine == nil {
					byLine = map[int][]string{}
					idx[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], m[1])
			}
		}
	}
	return idx
}

// allowed reports whether a finding of the named analyzer at pos is
// suppressed by an annotation on the same line or the line above.
func (a allowlist) allowed(fset *token.FileSet, pos token.Pos, name string) bool {
	p := fset.Position(pos)
	byLine := a[p.Filename]
	if byLine == nil {
		return false
	}
	for _, l := range []int{p.Line, p.Line - 1} {
		for _, n := range byLine[l] {
			if n == name {
				return true
			}
		}
	}
	return false
}
