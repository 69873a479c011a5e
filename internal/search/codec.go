package search

import (
	"fmt"
	"sort"

	"secureview/internal/wire"
)

// Snapshot codec for Frontier. Everything a Frontier holds is already the
// minimal cost-independent warm state — attribute universe, domination
// antichains, verdict memo, incumbent — so the codec is a direct transcription
// with one twist: the memo map is emitted in sorted-key order so that encoding
// the same Frontier twice yields identical bytes (snapshots diff cleanly and
// checksums are reproducible).

// AppendBinary appends the frontier's state to buf and returns the extended
// slice, building the frontier first if it has not been read yet. Decode
// with DecodeFrontier.
func (f *Frontier) AppendBinary(buf []byte) []byte {
	f.built()
	buf = wire.AppendU64(buf, uint64(len(f.attrs)))
	for _, a := range f.attrs {
		buf = wire.AppendString(buf, a)
	}
	buf = wire.AppendU64(buf, uint64(len(f.safe)))
	for _, m := range f.safe {
		buf = wire.AppendU32(buf, uint32(m))
	}
	buf = wire.AppendU64(buf, uint64(len(f.unsafe)))
	for _, m := range f.unsafe {
		buf = wire.AppendU32(buf, uint32(m))
	}
	keys := make([]Mask, 0, len(f.memo))
	for m := range f.memo {
		keys = append(keys, m)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	buf = wire.AppendU64(buf, uint64(len(keys)))
	for _, m := range keys {
		buf = wire.AppendU32(buf, uint32(m))
		buf = wire.AppendBool(buf, f.memo[m])
	}
	buf = wire.AppendU32(buf, uint32(f.incumbent))
	buf = wire.AppendBool(buf, f.found)
	return buf
}

// DecodeFrontier decodes one Frontier from r. The universe size and every
// mask are validated against the MaxAttrs mask width, so a corrupt payload
// cannot produce a frontier whose masks reach outside any Space it could
// match; a frontier for a mismatched universe is already conservatively
// ignored at resume time.
func DecodeFrontier(r *wire.Reader) (*Frontier, error) {
	k := r.Count(1)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if k > MaxAttrs {
		return nil, fmt.Errorf("search: decoded frontier universe %d exceeds %d attributes", k, MaxAttrs)
	}
	f := &Frontier{attrs: make([]string, k)}
	seen := make(map[string]bool, k)
	for i := range f.attrs {
		a := r.String()
		if a == "" && r.Err() == nil {
			return nil, fmt.Errorf("search: decoded frontier attribute %d has empty name", i)
		}
		if seen[a] {
			return nil, fmt.Errorf("search: decoded frontier duplicates attribute %q", a)
		}
		seen[a] = true
		f.attrs[i] = a
	}
	all := Mask(1)<<k - 1
	readMasks := func(kind string) ([]Mask, error) {
		n := r.Count(4)
		if r.Err() != nil {
			return nil, r.Err()
		}
		if n == 0 {
			return nil, nil
		}
		ms := make([]Mask, n)
		for i := range ms {
			m := Mask(r.U32())
			if m&^all != 0 && r.Err() == nil {
				return nil, fmt.Errorf("search: decoded %s mask %b outside universe", kind, m)
			}
			ms[i] = m
		}
		return ms, nil
	}
	var err error
	if f.safe, err = readMasks("safe"); err != nil {
		return nil, err
	}
	if f.unsafe, err = readMasks("unsafe"); err != nil {
		return nil, err
	}
	nMemo := r.Count(5)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if nMemo > memoCap {
		return nil, fmt.Errorf("search: decoded memo of %d verdicts exceeds cap %d", nMemo, memoCap)
	}
	if nMemo > 0 {
		f.memo = make(map[Mask]bool, nMemo)
		for i := 0; i < nMemo; i++ {
			m := Mask(r.U32())
			v := r.Bool()
			if m&^all != 0 && r.Err() == nil {
				return nil, fmt.Errorf("search: decoded memo mask %b outside universe", m)
			}
			f.memo[m] = v
		}
	}
	f.memoLen = len(f.memo)
	f.incumbent = Mask(r.U32())
	f.found = r.Bool()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if f.incumbent&^all != 0 {
		return nil, fmt.Errorf("search: decoded incumbent %b outside universe", f.incumbent)
	}
	return f, nil
}
