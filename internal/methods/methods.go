// Package methods links every similarity search method of the suite into
// the core registry. Importing it (usually for side effects) makes all ten
// approaches of the paper available through core.New:
//
//	UCR-Suite, MASS, Stepwise, R*-tree, M-tree, VA+file, SFA, DSTree,
//	iSAX2+, ADS+
package methods

import (
	"strings"

	"hydra/internal/core"

	// Each import registers one method in its init function.
	_ "hydra/internal/index/ads"
	_ "hydra/internal/index/dstree"
	_ "hydra/internal/index/isax"
	_ "hydra/internal/index/mtree"
	_ "hydra/internal/index/rstartree"
	_ "hydra/internal/index/sfatrie"
	_ "hydra/internal/index/stepwise"
	_ "hydra/internal/index/vafile"
	_ "hydra/internal/scan/mass"
	_ "hydra/internal/scan/ucr"
)

// All returns the names of every registered method.
func All() []string { return core.Names() }

// ParseList expands a CLI -method value: "all" becomes the given set, a
// comma list becomes its trimmed non-empty names, anything else is a single
// name. hydra-query (all = All()) and hydra-build (all = Persistables())
// share it so flag semantics never drift between the tools.
func ParseList(v string, all []string) []string {
	if v == "all" {
		return append([]string(nil), all...)
	}
	parts := strings.Split(v, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// BestSix returns the methods the paper carries into its §4.3.3 comparison
// after eliminating the ones that needed >12h on the 250GB dataset.
func BestSix() []string {
	return []string{"ADS+", "DSTree", "iSAX2+", "SFA", "UCR-Suite", "VA+file"}
}

// ApproxCapable returns the methods that answer the full approximate mode
// lattice (core.ApproxSearcher: ng, delta-eps, budget) — the five with
// lower-bounding index structures. The paper's Table 1 credits ng-approximate
// support to four of them; this suite additionally extends the VA+file (its
// filter file is a lower-bounding structure too), following the sequel
// paper's direction of retrofitting guarantees onto all index methods.
func ApproxCapable() []string {
	return []string{"ADS+", "DSTree", "iSAX2+", "SFA", "VA+file"}
}

// Properties describes Table 1 of the paper for one method.
type Properties struct {
	Name           string
	Exact          bool
	NgApprox       bool
	EpsApprox      bool
	DeltaEpsApprox bool
	WholeMatching  bool
	SubseqMatching bool
	Representation string
	OriginalImpl   string
	NewImpl        string
}

// Table1 returns the method-properties matrix (Table 1 of the paper).
func Table1() []Properties {
	return []Properties{
		{Name: "ADS+", Exact: true, NgApprox: true, WholeMatching: true, Representation: "iSAX", OriginalImpl: "C", NewImpl: ""},
		{Name: "DSTree", Exact: true, NgApprox: true, WholeMatching: true, Representation: "EAPCA", OriginalImpl: "Java", NewImpl: "C"},
		{Name: "iSAX2+", Exact: true, NgApprox: true, WholeMatching: true, Representation: "iSAX", OriginalImpl: "C#", NewImpl: "C"},
		{Name: "M-tree", Exact: true, EpsApprox: true, DeltaEpsApprox: true, WholeMatching: true, Representation: "Raw", OriginalImpl: "C++", NewImpl: ""},
		{Name: "R*-tree", Exact: true, WholeMatching: true, Representation: "PAA", OriginalImpl: "C++", NewImpl: ""},
		{Name: "SFA", Exact: true, NgApprox: true, WholeMatching: true, SubseqMatching: true, Representation: "SFA", OriginalImpl: "Java", NewImpl: "C"},
		{Name: "VA+file", Exact: true, WholeMatching: true, Representation: "DFT", OriginalImpl: "MATLAB", NewImpl: "C"},
		{Name: "UCR-Suite", Exact: true, WholeMatching: true, SubseqMatching: true, Representation: "Raw", OriginalImpl: "C", NewImpl: ""},
		{Name: "MASS", Exact: true, SubseqMatching: true, WholeMatching: true, Representation: "DFT", OriginalImpl: "C", NewImpl: ""},
		{Name: "Stepwise", Exact: true, WholeMatching: true, Representation: "DHWT", OriginalImpl: "C", NewImpl: ""},
	}
}
