package secureview

import (
	"fmt"
	"math/bits"
)

// maxCompiledAttrs is the largest attribute universe Compile accepts for
// the cardinality variant: one bit per attribute of a uint64 hidden mask.
// Set universes have no limit: their options are compiled to multi-word
// masks as well.
const maxCompiledAttrs = 64

// Compiled is a Problem lowered to bitmasks over a fixed attribute universe
// (bit i is the i-th attribute passed to Compile), for the feasibility test
// with nothing privatized. By Theorems 4 and 8 that test is a conjunction
// of per-module requirement lists, so on a mask it is a few word operations
// per option: a subset test per set option, two popcounts per cardinality
// module. It is immutable after Compile and safe for concurrent use.
//
// A set universe of any size is also kept as multi-word masks, ⌈n/64⌉
// words each (word w holds attributes 64w..64w+63): every private module's
// options and every public module's interface. ExactSetCtx searches those.
type Compiled struct {
	attrs []string
	mods  []compiledModule // private modules, in problem order
	// pub holds every public module's interface attributes within the
	// first 64 attributes: hiding any of them with nothing privatized is
	// infeasible.
	pub uint64

	words int          // words per multi-word mask
	wide  [][]uint64   // set: per private module, every option, words each
	pubs  []publicMask // public modules, in problem order
}

// compiledModule is one private module's requirement list in mask form.
type compiledModule struct {
	opts    []uint64  // set: each option within the first 64 attributes, in list order
	in, out uint64    // cardinality: the module's inputs and outputs
	card    []CardReq // cardinality: the (α, β) list, in order
}

// publicMask is one public module's interface within the universe, as a
// multi-word mask, and its privatization cost.
type publicMask struct {
	name string
	mask []uint64
	cost float64
}

// Compile lowers the problem's variant-v requirements onto the attribute
// universe attrs (distinct; at most 64 for the cardinality variant). A set
// option naming an attribute outside attrs is dropped: no hidden subset of
// the universe can satisfy it. A cardinality module listing one universe
// attribute twice among its inputs (or its outputs) is rejected, because
// the popcount test counts each attribute once; Problem.Validate rejects
// such a module too.
//
// For every mask h over the first 64 attributes of the universe,
// Feasible(h) equals p.Feasible(Solution{Hidden: names(h), Privatized: ∅}, v).
func (p *Problem) Compile(v Variant, attrs []string) (*Compiled, error) {
	if v != Set && v != Cardinality {
		return nil, fmt.Errorf("secureview: unknown variant %d", v)
	}
	if v == Cardinality && len(attrs) > maxCompiledAttrs {
		return nil, fmt.Errorf("secureview: %d attributes exceed the %d-bit compiled cardinality universe",
			len(attrs), maxCompiledAttrs)
	}
	index := make(map[string]int, len(attrs))
	for i, a := range attrs {
		if _, dup := index[a]; dup {
			return nil, fmt.Errorf("secureview: duplicate attribute %q", a)
		}
		index[a] = i
	}
	words := max(1, (len(attrs)+63)/64)
	c := &Compiled{attrs: append([]string(nil), attrs...), words: words}
	for _, m := range p.Modules {
		if m.Public {
			pm := publicMask{name: m.Name, mask: make([]uint64, words), cost: m.PrivatizeCost}
			for _, list := range [][]string{m.Inputs, m.Outputs} {
				for _, a := range list {
					if i, ok := index[a]; ok {
						pm.mask[i/64] |= 1 << (i % 64)
					}
				}
			}
			c.pub |= pm.mask[0]
			c.pubs = append(c.pubs, pm)
			continue
		}
		var cm compiledModule
		var wide []uint64
		switch v {
		case Cardinality:
			var err error
			if cm.in, err = interfaceMask(index, m.Name, m.Inputs); err != nil {
				return nil, err
			}
			if cm.out, err = interfaceMask(index, m.Name, m.Outputs); err != nil {
				return nil, err
			}
			cm.card = m.CardList
		case Set:
			o := make([]uint64, words)
			for _, r := range m.SetList {
				clear(o)
				if !maskOf(o, index, r.In, r.Out) {
					continue
				}
				if words > 1 {
					wide = append(wide, o...)
				}
				if zeroAbove(o, 1) {
					cm.opts = append(cm.opts, o[0])
				}
			}
			if words == 1 {
				wide = cm.opts
			}
		}
		c.mods = append(c.mods, cm)
		c.wide = append(c.wide, wide)
	}
	return c, nil
}

// interfaceMask returns the mask of a module's inputs (or outputs) within
// the universe, rejecting a universe attribute listed twice.
func interfaceMask(index map[string]int, module string, names []string) (uint64, error) {
	var m uint64
	for _, a := range names {
		i, ok := index[a]
		if !ok {
			continue
		}
		if m&(1<<i) != 0 {
			return 0, fmt.Errorf("secureview: module %q lists attribute %q twice", module, a)
		}
		m |= 1 << i
	}
	return m, nil
}

// maskOf sets the named attributes' bits in the multi-word mask m, and
// reports false when one of them is outside the universe.
func maskOf(m []uint64, index map[string]int, lists ...[]string) bool {
	for _, names := range lists {
		for _, a := range names {
			i, ok := index[a]
			if !ok {
				return false
			}
			m[i/64] |= 1 << (i % 64)
		}
	}
	return true
}

// zeroAbove reports whether the multi-word mask m has no bit in words
// w and up.
func zeroAbove(m []uint64, w int) bool {
	for _, x := range m[w:] {
		if x != 0 {
			return false
		}
	}
	return true
}

// Feasible reports whether hiding the attributes of mask h, privatizing
// nothing, satisfies every private module and leaves every public module
// fully visible. Bit i of h is attribute i; bits beyond the universe are
// ignored, and in a universe of more than 64 attributes the rest count as
// visible.
func (c *Compiled) Feasible(h uint64) bool {
	if h&c.pub != 0 {
		return false
	}
	for i := range c.mods {
		if !c.mods[i].satisfied(h) {
			return false
		}
	}
	return true
}

// satisfied reports whether hidden mask h meets one of the module's
// options. A set module carries opts and no card list, and vice versa.
func (m *compiledModule) satisfied(h uint64) bool {
	for _, o := range m.opts {
		if o&^h == 0 {
			return true
		}
	}
	if len(m.card) == 0 {
		return false
	}
	hi, ho := bits.OnesCount64(h&m.in), bits.OnesCount64(h&m.out)
	for _, r := range m.card {
		if hi >= r.Alpha && ho >= r.Beta {
			return true
		}
	}
	return false
}
