package secureview

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"secureview/internal/privacy"
	"secureview/internal/relation"
)

// hiddenNames materializes mask h over attrs as a name set.
func hiddenNames(attrs []string, h uint64) relation.NameSet {
	out := make(relation.NameSet)
	for x := h; x != 0; x &= x - 1 {
		out.Add(attrs[bits.TrailingZeros64(x)])
	}
	return out
}

// satisfiedRef is the definitional satisfaction predicate, written with the
// allocating set operations ModuleSpec.Satisfied avoids.
func satisfiedRef(m ModuleSpec, hidden relation.NameSet, v Variant) bool {
	switch v {
	case Cardinality:
		hi := len(relation.NewNameSet(m.Inputs...).Intersect(hidden))
		ho := len(relation.NewNameSet(m.Outputs...).Intersect(hidden))
		for _, r := range m.CardList {
			if hi >= r.Alpha && ho >= r.Beta {
				return true
			}
		}
	case Set:
		for _, r := range m.SetList {
			if r.Attrs().SubsetOf(hidden) {
				return true
			}
		}
	}
	return false
}

// checkCompiled compares Compiled.Feasible with Problem.Feasible on every
// mask of the universe, and checks that bits above the universe are ignored
// and that Satisfied matches its definition.
func checkCompiled(t *testing.T, p *Problem, v Variant, attrs []string) {
	t.Helper()
	c, err := p.Compile(v, attrs)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	none := relation.NewNameSet()
	all := uint64(1)<<len(attrs) - 1
	for h := uint64(0); h <= all; h++ {
		hidden := hiddenNames(attrs, h)
		want := p.Feasible(Solution{Hidden: hidden, Privatized: none}, v)
		if got := c.Feasible(h); got != want {
			t.Fatalf("%v: compiled feasibility of %v = %v, reference %v", v, hidden.Sorted(), got, want)
		}
		if len(attrs) < 64 && c.Feasible(h|^all) != want {
			t.Fatalf("%v: bits above the universe changed the verdict on %v", v, hidden.Sorted())
		}
		for _, m := range p.Modules {
			if !m.Public && m.Satisfied(hidden, v) != satisfiedRef(m, hidden, v) {
				t.Fatalf("%v: module %s Satisfied(%v) disagrees with its definition", v, m.Name, hidden.Sorted())
			}
		}
	}
}

func TestCompiledFeasibleMatchesReference(t *testing.T) {
	p := &Problem{
		Modules: []ModuleSpec{
			{
				Name: "m1", Inputs: []string{"a", "b"}, Outputs: []string{"c", "d"},
				// The second option is listed twice; the third names "e",
				// which the narrow universe below leaves out.
				SetList: []SetReq{{In: []string{"a"}, Out: []string{"c"}}, {Out: []string{"d"}},
					{Out: []string{"d"}}, {In: []string{"b"}, Out: []string{"e"}}},
				CardList: []CardReq{{Alpha: 2}, {Alpha: 1, Beta: 1}},
			},
			{
				Name: "m2", Inputs: []string{"c"}, Outputs: []string{"e"},
				SetList:  []SetReq{{In: []string{"c"}}, {Out: []string{"e"}}},
				CardList: []CardReq{{Alpha: 0, Beta: 1}, {Alpha: 1}},
			},
			{Name: "pub", Public: true, Inputs: []string{"d"}, Outputs: []string{"f"}},
		},
		Costs: privacy.Costs{"a": 1, "b": 1, "c": 2, "d": 1, "e": 3, "f": 1},
	}
	for _, v := range []Variant{Set, Cardinality} {
		checkCompiled(t, p, v, p.Attributes())
		checkCompiled(t, p, v, p.UsefulAttributes(v))
		checkCompiled(t, p, v, []string{"d", "c", "a", "b"})
		checkCompiled(t, p, v, nil)
	}
}

func TestCompiledEmptyOptionsAndLists(t *testing.T) {
	p := &Problem{Modules: []ModuleSpec{
		{Name: "free", Inputs: []string{"a"}, Outputs: []string{"b"},
			SetList: []SetReq{{}}, CardList: []CardReq{{}}},
		{Name: "stuck", Inputs: []string{"b"}, Outputs: []string{"c"}},
	}}
	for _, v := range []Variant{Set, Cardinality} {
		c, err := p.Compile(v, p.Attributes())
		if err != nil {
			t.Fatal(err)
		}
		if c.Feasible(0b111) {
			t.Errorf("%v: a module with no options was satisfied", v)
		}
		checkCompiled(t, p, v, p.Attributes())
		checkCompiled(t, &Problem{Modules: p.Modules[:1]}, v, p.Attributes())
	}
}

func TestCompileRejects(t *testing.T) {
	p := chainProblem(1, 1, 1)
	wide := make([]string, maxCompiledAttrs+1)
	for i := range wide {
		wide[i] = fmt.Sprintf("x%d", i)
	}
	dupIn := &Problem{Modules: []ModuleSpec{{Name: "m", Inputs: []string{"a", "a"}, Outputs: []string{"b"},
		CardList: []CardReq{{Alpha: 2}}}}}
	for _, tc := range []struct {
		name  string
		p     *Problem
		v     Variant
		attrs []string
		want  string
	}{
		{"unknown variant", p, Variant(7), []string{"a"}, "unknown variant"},
		{"too wide", p, Set, wide, "exceed"},
		{"duplicate attribute", p, Set, []string{"a", "b", "a"}, "duplicate attribute"},
		{"input listed twice", dupIn, Cardinality, []string{"a", "b"}, "twice"},
	} {
		if _, err := tc.p.Compile(tc.v, tc.attrs); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	// Set options carry no multiplicity, and an input listed twice outside
	// the universe is never counted: both compile.
	if _, err := dupIn.Compile(Set, []string{"a", "b"}); err != nil {
		t.Errorf("set variant rejected a repeated input: %v", err)
	}
	if _, err := dupIn.Compile(Cardinality, []string{"b"}); err != nil {
		t.Errorf("repeated input outside the universe rejected: %v", err)
	}
	c, err := p.Compile(Set, wide[:maxCompiledAttrs])
	if err != nil {
		t.Fatalf("a %d-attribute universe was rejected: %v", maxCompiledAttrs, err)
	}
	if c.Feasible(^uint64(0)) {
		t.Error("options naming attributes outside the universe were kept")
	}
}

// byteSource reads bounded choices from fuzz input, yielding zeros once it
// runs out.
type byteSource struct {
	b []byte
	i int
}

func (s *byteSource) next(n int) int {
	if n <= 1 || s.i >= len(s.b) {
		return 0
	}
	v := int(s.b[s.i]) % n
	s.i++
	return v
}

// fuzzProblem builds a small problem from the fuzz input: up to 10
// attributes shared by up to 5 modules, some public; option lists that may
// be empty, repeat an option, name an attribute twice, or carry α or β = 0;
// and a universe that may leave some attributes out, so set options can
// name attributes outside it.
func fuzzProblem(data []byte) (*Problem, Variant, []string) {
	src := &byteSource{b: data}
	pool := make([]string, 1+src.next(10))
	for i := range pool {
		pool[i] = fmt.Sprintf("a%d", i)
	}
	p := &Problem{Costs: privacy.Costs{}}
	for _, a := range pool {
		p.Costs[a] = float64(src.next(3))
	}
	nMods := 1 + src.next(5)
	for mi := 0; mi < nMods; mi++ {
		m := ModuleSpec{Name: fmt.Sprintf("m%d", mi), Public: src.next(4) == 0}
		for _, a := range pool {
			switch src.next(4) {
			case 1:
				m.Inputs = append(m.Inputs, a)
			case 2:
				m.Outputs = append(m.Outputs, a)
			}
		}
		for j, n := 0, src.next(4); j < n; j++ {
			m.CardList = append(m.CardList, CardReq{
				Alpha: src.next(len(m.Inputs) + 1), Beta: src.next(len(m.Outputs) + 1)})
		}
		for j, n := 0, src.next(4); j < n; j++ {
			if j > 0 && src.next(3) == 0 {
				m.SetList = append(m.SetList, m.SetList[j-1])
				continue
			}
			var r SetReq
			for _, a := range m.Inputs {
				if src.next(2) == 1 {
					r.In = append(r.In, a)
				}
			}
			for _, a := range m.Outputs {
				if src.next(2) == 1 {
					r.Out = append(r.Out, a)
				}
			}
			if len(r.In) > 0 && src.next(4) == 0 {
				r.In = append(r.In, r.In[0])
			}
			m.SetList = append(m.SetList, r)
		}
		p.Modules = append(p.Modules, m)
	}
	v := Set
	if src.next(2) == 1 {
		v = Cardinality
	}
	var attrs []string
	for _, a := range pool {
		if src.next(4) != 0 {
			attrs = append(attrs, a)
		}
	}
	if src.next(2) == 1 {
		for i, j := 0, len(attrs)-1; i < j; i, j = i+1, j-1 {
			attrs[i], attrs[j] = attrs[j], attrs[i]
		}
	}
	return p, v, attrs
}

// FuzzCompiledFeasible checks Compiled.Feasible against Problem.Feasible on
// every mask of small fuzzed problems. Run actively with:
//
//	go test -run '^$' -fuzz '^FuzzCompiledFeasible$' -fuzztime 30s ./internal/secureview
func FuzzCompiledFeasible(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 64+i*8)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, v, attrs := fuzzProblem(data)
		checkCompiled(t, p, v, attrs)
	})
}

// TestCompiledConcurrentFeasible shares one Compiled across goroutines, as
// the engine's workers do; under -race any write inside Feasible shows up.
func TestCompiledConcurrentFeasible(t *testing.T) {
	p := chainProblem(1, 2, 3)
	attrs := p.Attributes()
	c, err := p.Compile(Set, attrs)
	if err != nil {
		t.Fatal(err)
	}
	all := uint64(1)<<len(attrs) - 1
	want := make([]bool, all+1)
	for h := range want {
		want[h] = c.Feasible(uint64(h))
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 100; rep++ {
				for h := range want {
					if c.Feasible(uint64(h)) != want[h] {
						errs <- fmt.Sprintf("mask %b changed verdict", h)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
