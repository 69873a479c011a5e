package secureview

import (
	"fmt"
	"math/bits"
)

// maxCompiledAttrs is the largest attribute universe Compile accepts: one
// bit per attribute of a uint64 hidden mask.
const maxCompiledAttrs = 64

// Compiled is a Problem lowered to bitmasks over a fixed attribute universe
// (bit i is the i-th attribute passed to Compile), for the feasibility test
// with nothing privatized. By Theorems 4 and 8 that test is a conjunction
// of per-module requirement lists, so on a mask it is a few word operations
// per option: a subset test per set option, two popcounts per cardinality
// module. It is immutable after Compile and safe for concurrent use.
type Compiled struct {
	attrs []string
	mods  []compiledModule // private modules, in problem order
	// pub holds every public module's interface attributes within the
	// universe: hiding any of them with nothing privatized is infeasible.
	pub uint64
}

// compiledModule is one private module's requirement list in mask form.
type compiledModule struct {
	opts    []uint64  // set: each option's attributes, in list order
	in, out uint64    // cardinality: the module's inputs and outputs
	card    []CardReq // cardinality: the (α, β) list, in order
}

// Compile lowers the problem's variant-v requirements onto the attribute
// universe attrs (distinct, at most 64). A set option naming an attribute
// outside attrs is dropped: no hidden subset of the universe can satisfy
// it. A cardinality module listing one universe attribute twice among its
// inputs (or its outputs) is rejected, because the popcount test counts
// each attribute once; workflow modules cannot list one twice.
//
// For every mask h over the universe, Feasible(h) equals
// p.Feasible(Solution{Hidden: names(h), Privatized: ∅}, v).
func (p *Problem) Compile(v Variant, attrs []string) (*Compiled, error) {
	if v != Set && v != Cardinality {
		return nil, fmt.Errorf("secureview: unknown variant %d", v)
	}
	if len(attrs) > maxCompiledAttrs {
		return nil, fmt.Errorf("secureview: %d attributes exceed the %d-bit compiled universe",
			len(attrs), maxCompiledAttrs)
	}
	bit := make(map[string]uint64, len(attrs))
	for i, a := range attrs {
		if _, dup := bit[a]; dup {
			return nil, fmt.Errorf("secureview: duplicate attribute %q", a)
		}
		bit[a] = 1 << i
	}
	c := &Compiled{attrs: append([]string(nil), attrs...)}
	for _, m := range p.Modules {
		if m.Public {
			for _, a := range m.Inputs {
				c.pub |= bit[a]
			}
			for _, a := range m.Outputs {
				c.pub |= bit[a]
			}
			continue
		}
		var cm compiledModule
		switch v {
		case Cardinality:
			var err error
			if cm.in, err = interfaceMask(bit, m.Name, m.Inputs); err != nil {
				return nil, err
			}
			if cm.out, err = interfaceMask(bit, m.Name, m.Outputs); err != nil {
				return nil, err
			}
			cm.card = m.CardList
		case Set:
			for _, r := range m.SetList {
				if o, ok := maskOf(bit, r.In, r.Out); ok {
					cm.opts = append(cm.opts, o)
				}
			}
		}
		c.mods = append(c.mods, cm)
	}
	return c, nil
}

// interfaceMask returns the mask of a module's inputs (or outputs) within
// the universe, rejecting a universe attribute listed twice.
func interfaceMask(bit map[string]uint64, module string, names []string) (uint64, error) {
	var m uint64
	for _, a := range names {
		b := bit[a]
		if m&b != 0 {
			return 0, fmt.Errorf("secureview: module %q lists attribute %q twice", module, a)
		}
		m |= b
	}
	return m, nil
}

// maskOf returns the mask of the named attributes, or false when one of
// them is outside the universe.
func maskOf(bit map[string]uint64, lists ...[]string) (uint64, bool) {
	var m uint64
	for _, names := range lists {
		for _, a := range names {
			b, ok := bit[a]
			if !ok {
				return 0, false
			}
			m |= b
		}
	}
	return m, true
}

// Feasible reports whether hiding the attributes of mask h, privatizing
// nothing, satisfies every private module and leaves every public module
// fully visible. Bits beyond the universe are ignored.
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
