// Package privacy implements Γ-standalone-privacy for individual modules
// (Davidson et al., PODS 2011, section 3 and appendix A).
//
// The central notion is Definition 2 of the paper: a module m with relation
// R is Γ-standalone-private w.r.t. a set V of visible attributes if, for
// every input x occurring in R, the possible worlds Worlds(R,V) admit at
// least Γ distinct outputs for x. The package provides
//
//   - the exact closed-form safety test of Lemma 4 / Algorithm 2 (group rows
//     by visible inputs, count distinct visible outputs, multiply by the
//     hidden-output domain volume),
//   - OUT-set computation for individual inputs,
//   - minimum-cost safe-subset search (the standalone Secure-View problem)
//     on the internal/search engine, which tests each surviving subset with
//     one call to the compiled Lemma 4 oracle (the interpreted test when
//     the module does not compile), and enumeration of all minimal safe
//     hidden sets,
//   - the Safe-View oracle and data-supplier abstractions with call
//     counting, used by the communication-complexity experiments, and
//   - the adversarial gadgets from the proofs of Theorems 1, 2 and 3.
package privacy

import (
	"fmt"
	"math"

	"secureview/internal/module"
	"secureview/internal/oracle"
	"secureview/internal/relation"
)

// ModuleView bundles what the standalone definitions need: the module's
// relation (possibly partial, i.e. only executed inputs), and which of its
// attributes are inputs vs outputs.
type ModuleView struct {
	Rel     *relation.Relation
	Inputs  []string
	Outputs []string
}

// NewModuleView materializes a module's full relation. For partial views use
// the ModuleView literal with RelationOver.
func NewModuleView(m *module.Module) ModuleView {
	return ModuleView{Rel: m.Relation(), Inputs: m.InputNames(), Outputs: m.OutputNames()}
}

// Compile lowers the module view into the integer-coded oracle of
// internal/oracle: rows become uint64 input/output codes, and each safety
// test becomes a sort-and-scan over packed keys with zero steady-state
// allocation. The compiled oracle is immutable and safe to share across the
// search engine's worker pool. Compilation fails (and callers fall back to
// the interpreted path) when the domain products overflow uint64 or the
// module has more than oracle.MaxAttrs attributes.
func (mv ModuleView) Compile() (*oracle.Compiled, error) {
	return oracle.Compile(mv.Rel, mv.Inputs, mv.Outputs)
}

// HiddenOutputVolume returns ∏_{a ∈ O\V} |∆a|, the number of ways to extend
// a visible output assignment to the hidden output attributes. The bool is
// false on overflow (treated as "huge" by callers).
func (mv ModuleView) HiddenOutputVolume(visible relation.NameSet) (uint64, bool) {
	var hidden []string
	for _, o := range mv.Outputs {
		if !visible.Has(o) {
			hidden = append(hidden, o)
		}
	}
	return mv.Rel.Schema().DomainProduct(hidden)
}

// MinOutSize returns min_x |OUT_{x,m}| over all inputs x ∈ π_I(R), w.r.t.
// the visible attribute set, using the closed form of Lemma 4:
//
//	|OUT_x| = (# distinct visible-output tuples among rows that agree with
//	           x on the visible inputs) × ∏_{a ∈ O\V} |∆a|.
//
// The returned value saturates at math.MaxUint64 on overflow. An empty
// relation yields 0.
func (mv ModuleView) MinOutSize(visible relation.NameSet) (uint64, error) {
	if mv.Rel.Len() == 0 {
		return 0, nil
	}
	visIn := visible.FilterSorted(mv.Inputs)
	visOut := visible.FilterSorted(mv.Outputs)
	vol, ok := mv.HiddenOutputVolume(visible)
	if !ok {
		vol = math.MaxUint64
	}
	groups, err := mv.Rel.GroupBy(visIn)
	if err != nil {
		return 0, err
	}
	outCols, err := mv.Rel.Schema().Columns(visOut)
	if err != nil {
		return 0, err
	}
	min := uint64(math.MaxUint64)
	for _, g := range groups {
		distinct := countDistinctOn(mv.Rel.Schema(), g, outCols)
		size := satMul(uint64(distinct), vol)
		if size < min {
			min = size
		}
	}
	return min, nil
}

// OutSize returns |OUT_{x,m}| for one input tuple x (aligned with Inputs),
// w.r.t. the visible attribute set. x must occur in π_I(R).
func (mv ModuleView) OutSize(visible relation.NameSet, x relation.Tuple) (uint64, error) {
	if len(x) != len(mv.Inputs) {
		return 0, fmt.Errorf("privacy: input arity %d, want %d", len(x), len(mv.Inputs))
	}
	inCols, err := mv.Rel.Schema().Columns(mv.Inputs)
	if err != nil {
		return 0, err
	}
	visIn := visible.FilterSorted(mv.Inputs)
	visInCols, err := mv.Rel.Schema().Columns(visIn)
	if err != nil {
		return 0, err
	}
	visOut := visible.FilterSorted(mv.Outputs)
	visOutCols, err := mv.Rel.Schema().Columns(visOut)
	if err != nil {
		return 0, err
	}
	// Locate x's visible input part via any row with input x.
	var ref relation.Tuple
	for _, row := range mv.Rel.Rows() {
		match := true
		for i, c := range inCols {
			if row[c] != x[i] {
				match = false
				break
			}
		}
		if match {
			ref = row
			break
		}
	}
	if ref == nil {
		return 0, fmt.Errorf("privacy: input %v not in relation", x)
	}
	group := mv.Rel.Select(func(row relation.Tuple) bool {
		for _, c := range visInCols {
			if row[c] != ref[c] {
				return false
			}
		}
		return true
	})
	distinct := countDistinctOn(mv.Rel.Schema(), group.Rows(), visOutCols)
	vol, ok := mv.HiddenOutputVolume(visible)
	if !ok {
		vol = math.MaxUint64
	}
	return satMul(uint64(distinct), vol), nil
}

// OutSet enumerates OUT_{x,m} explicitly: every output tuple y (aligned with
// Outputs) that some possible world assigns to x. Only suitable for small
// hidden-output domains; used by tests and the Figure 2 experiment.
func (mv ModuleView) OutSet(visible relation.NameSet, x relation.Tuple) ([]relation.Tuple, error) {
	inCols, err := mv.Rel.Schema().Columns(mv.Inputs)
	if err != nil {
		return nil, err
	}
	var ref relation.Tuple
	for _, row := range mv.Rel.Rows() {
		match := true
		for i, c := range inCols {
			if row[c] != x[i] {
				match = false
				break
			}
		}
		if match {
			ref = row
			break
		}
	}
	if ref == nil {
		return nil, fmt.Errorf("privacy: input %v not in relation", x)
	}
	visIn := visible.FilterSorted(mv.Inputs)
	visInCols, err := mv.Rel.Schema().Columns(visIn)
	if err != nil {
		return nil, err
	}
	outCols, err := mv.Rel.Schema().Columns(mv.Outputs)
	if err != nil {
		return nil, err
	}
	outSchema, err := mv.Rel.Schema().Project(mv.Outputs)
	if err != nil {
		return nil, err
	}
	// Collect visible-output patterns from the group, then expand every
	// hidden output coordinate over its full domain.
	group := mv.Rel.Select(func(row relation.Tuple) bool {
		for _, c := range visInCols {
			if row[c] != ref[c] {
				return false
			}
		}
		return true
	})
	seen := make(map[uint64]relation.Tuple)
	for _, row := range group.Rows() {
		base := make(relation.Tuple, len(outCols))
		for i, c := range outCols {
			base[i] = row[c]
		}
		expandHidden(outSchema, mv.Outputs, visible, base, 0, seen)
	}
	out := make([]relation.Tuple, 0, len(seen))
	relation.EachTuple(outSchema, func(t relation.Tuple) bool {
		if y, ok := seen[relation.Encode(outSchema, t)]; ok {
			out = append(out, y)
		}
		return true
	})
	return out, nil
}

func expandHidden(outSchema *relation.Schema, outputs []string, visible relation.NameSet,
	cur relation.Tuple, i int, seen map[uint64]relation.Tuple) {
	if i == len(outputs) {
		seen[relation.Encode(outSchema, cur)] = cur.Clone()
		return
	}
	if visible.Has(outputs[i]) {
		expandHidden(outSchema, outputs, visible, cur, i+1, seen)
		return
	}
	orig := cur[i]
	for v := 0; v < outSchema.Attr(i).Domain; v++ {
		cur[i] = v
		expandHidden(outSchema, outputs, visible, cur, i+1, seen)
	}
	cur[i] = orig
}

// IsSafe reports whether the visible set V is safe for the module and
// privacy requirement Γ (Definition 2): min_x |OUT_x| >= Γ.
func (mv ModuleView) IsSafe(visible relation.NameSet, gamma uint64) (bool, error) {
	min, err := mv.MinOutSize(visible)
	if err != nil {
		return false, err
	}
	return min >= gamma, nil
}

// countDistinctOn counts distinct projections of rows onto cols using packed
// uint64 mixed-radix codes as dedup keys (relation.EncodeCols) instead of
// concatenated strings; when the columns' domain product overflows uint64 it
// falls back to a string encoding.
func countDistinctOn(s *relation.Schema, rows []relation.Tuple, cols []int) int {
	if len(cols) == 0 {
		if len(rows) == 0 {
			return 0
		}
		return 1
	}
	prod := uint64(1)
	for _, c := range cols {
		d := uint64(s.Attr(c).Domain)
		if d != 0 && prod > math.MaxUint64/d {
			return countDistinctOnStrings(rows, cols)
		}
		prod *= d
	}
	seen := make(map[uint64]struct{}, len(rows))
	for _, row := range rows {
		seen[relation.EncodeCols(s, row, cols)] = struct{}{}
	}
	return len(seen)
}

// countDistinctOnStrings is the pre-compiled-oracle fallback for domain
// products beyond uint64.
func countDistinctOnStrings(rows []relation.Tuple, cols []int) int {
	seen := make(map[string]struct{}, len(rows))
	for _, row := range rows {
		k := ""
		for _, c := range cols {
			k += fmt.Sprintf("%d,", row[c])
		}
		seen[k] = struct{}{}
	}
	return len(seen)
}

func satMul(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxUint64/b {
		return math.MaxUint64
	}
	return a * b
}
