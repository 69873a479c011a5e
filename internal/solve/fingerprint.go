package solve

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"

	"secureview/internal/secureview"
)

// ProblemFingerprint identifies a derived problem's structure: a
// hex-encoded SHA-256 of the module interfaces, visibility and requirement
// lists, plus the variant (it selects the feasibility predicate and the
// useful-attribute universe). Costs and PrivatizeCost are deliberately
// excluded, so two requests that differ only in costs share a fingerprint;
// the server returns it with every solve. Set-requirement attribute lists
// are hashed in sorted order because derivation emits them in map order;
// the fingerprint must be stable across re-derivations of the same
// workflow. The hashed version tag predates the retired warm-start tier and
// stays so that served fingerprints do not change.
func ProblemFingerprint(p *secureview.Problem, v secureview.Variant) string {
	h := sha256.New()
	hashStr(h, 'V', "solve/warm/v1")
	hashU64(h, uint64(v))
	hashU64(h, uint64(len(p.Modules)))
	sorted := func(names []string) []string {
		out := append([]string(nil), names...)
		sort.Strings(out)
		return out
	}
	for i := range p.Modules {
		m := &p.Modules[i]
		hashStr(h, 'm', m.Name)
		pub := uint64(0)
		if m.Public {
			pub = 1
		}
		hashU64(h, pub)
		hashU64(h, uint64(len(m.Inputs)))
		for _, a := range m.Inputs {
			hashStr(h, 'i', a)
		}
		hashU64(h, uint64(len(m.Outputs)))
		for _, a := range m.Outputs {
			hashStr(h, 'o', a)
		}
		hashU64(h, uint64(len(m.CardList)))
		for _, r := range m.CardList {
			hashU64(h, uint64(r.Alpha))
			hashU64(h, uint64(r.Beta))
		}
		hashU64(h, uint64(len(m.SetList)))
		for _, r := range m.SetList {
			in, out := sorted(r.In), sorted(r.Out)
			hashU64(h, uint64(len(in)))
			for _, a := range in {
				hashStr(h, 's', a)
			}
			hashU64(h, uint64(len(out)))
			for _, a := range out {
				hashStr(h, 't', a)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
