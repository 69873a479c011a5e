// Package oracle compiles the Lemma 4 standalone safety test (Davidson et
// al., PODS 2011) into dense integer-coded tables so that each test is a few
// array and bitset operations instead of relation scans.
//
// The interpreted test in internal/privacy re-resolves schema columns,
// re-groups the relation with string keys and re-scans rows on every call —
// fine for one query, ruinous inside the 2^k subset search where the oracle
// is invoked once per surviving candidate. Compile does all of that work
// once per (relation, input/output split):
//
//   - every row's input and output halves are packed into mixed-radix
//     uint64 codes (relation.EncodeCols),
//   - per-row digit tables make projecting onto an arbitrary visible mask a
//     short multiply-add chain with no division,
//   - a safety test sorts N packed (visible-input, visible-output) keys from
//     a scratch pool — zero steady-state allocation — and takes the minimum
//     group count,
//   - OUT sets are represented as Bitsets over output codes.
//
// A Compiled value is immutable after Compile and safe for concurrent use,
// so one compiled oracle is shared across the whole engine worker pool
// (internal/search) — compile once, test everywhere.
//
// Narrow modules (total field width ≤ bitsMax) additionally compile each
// row to a single packed uint32, turning one test into an AND per row
// against small epoch-stamped tables, and MinOutSizeBatch/IsSafeBatch
// answer whole mask slices in chunked strided passes over the same
// tables — the batch oracle internal/search plugs into. EquivClasses
// exposes the attributes the Lemma 4 test provably cannot distinguish,
// which seeds the engine's symmetry breaking.
package oracle

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"secureview/internal/relation"
)

// Mask is a visibility bitmask over the compiled attribute universe: bit i
// refers to Attrs()[i], inputs first then outputs — the same convention as a
// search.Space built over ModuleView.Attrs(), so engine masks convert by
// plain integer conversion.
type Mask uint32

// MaxAttrs bounds the compiled universe (mask width).
const MaxAttrs = 32

// MaxOutSetDomain bounds the output-domain size for which explicit OUT-set
// bitsets are materialized, here and in internal/worlds (8 MiB of bits).
const MaxOutSetDomain = 1 << 26

// denseMax bounds the packed key space (prodIn × prodOut) for which the
// epoch-stamped dense counting path is used: one uint32 stamp per possible
// key (4 MiB at the cap). Beyond it, safety tests fall back to sorting the
// row keys — still allocation-free, just O(N log N) instead of O(N).
const denseMax = 1 << 20

// bitsMax bounds the total bit-field width for which the packed-word fast
// path is compiled: every row's digits concatenated as power-of-two fields
// in one uint32, so projecting a row onto a visible mask is a single AND
// instead of a per-attribute multiply-add chain.
const bitsMax = 20

// batchTableMax bounds the strided batch stamp tables at 2^18 uint16
// entries (512 KiB): a chunk of 2^shift masks shares one pass over the
// rows, with mask ci's keys interleaved at stride position ci so chunk
// members can never collide in the shared epoch-stamped table. The bound
// keeps the table L2-resident, which measures far faster than wider
// chunks against a larger, cache-missing table; modules at the bitsMax
// edge therefore run chunks of one (a plain per-mask pass), and narrower
// modules regain the shared-pass amortization.
const batchTableMax = 18

// maxBatchShift caps the chunk width at 8 masks per row pass; wider chunks
// stop paying once the shared row load is amortized.
const maxBatchShift = 3

// Compiled is the integer-coded form of one module view: the relation rows
// encoded as input/output codes plus digit tables. All fields are read-only
// after Compile; the scratch pool makes per-call state allocation-free in
// steady state, so a single Compiled may serve many goroutines.
type Compiled struct {
	attrs []string // inputs then outputs; Mask bit i = attrs[i]
	nIn   int
	nOut  int

	inDoms  []uint64 // input attribute domain sizes
	outDoms []uint64 // output attribute domain sizes

	n      int     // number of rows
	inDig  []int32 // row r, input i  -> inDig[r*nIn+i]
	outDig []int32 // row r, output j -> outDig[r*nOut+j]

	inCodeRow map[uint64]int32 // full input code -> first row index

	prodIn  uint64 // ∏ inDoms
	prodOut uint64 // ∏ outDoms

	outSchema *relation.Schema // schema over the outputs, for decoding

	dense   bool      // prodIn*prodOut small enough for stamp tables
	scratch sync.Pool // *callScratch, one per concurrent safety test

	// Packed-word fast path (compiled when the total field width fits
	// bitsMax): rowBits[r] holds row r's digits as concatenated power-of-two
	// bit fields, inputs in the low bits, so a visible projection is
	// rowBits[r] & wordMask(visible) — one AND per row per mask.
	bitsOK    bool
	rowBits   []uint32 // row r -> packed digit word
	fieldBits []uint32 // attr i -> mask of its field within a packed word
	inFields  uint32   // union of the input fields (the low inBits bits)
	totalBits int      // sum of all field widths
	inBits    int      // sum of the input field widths
	bshift    int      // log2 of the batch chunk width (masks per row pass)

	// equiv lists the oracle-level attribute equivalence classes (indices
	// into attrs, size ≥ 2): inputs inducing the same row partition, outputs
	// inducing the same partition with equal domain. Members of one class
	// are interchangeable under every visibility mask.
	equiv [][]int
}

// callScratch is the reusable per-call state of a safety test. Dense tests
// use epoch-stamped tables — a slot is live only when its stamp equals the
// current epoch, so nothing is cleared between calls; sorted tests reuse the
// key buffer. Pooled, so steady-state tests allocate nothing.
type callScratch struct {
	keys []uint64 // len n: packed (visible-input, visible-output) row keys

	epoch    uint32
	keyStamp []uint32 // len prodIn*prodOut (dense only)
	vinStamp []uint32 // len prodIn (dense only)
	cnt      []uint32 // len prodIn: distinct visible outputs per group
	vins     []uint64 // distinct visible-input codes seen this call

	// Packed-word state (bits path only). The strided tables serve both the
	// single-mask test (chunk position 0) and whole batch chunks; a slot is
	// live only when its stamp equals bepoch, so chunks never clear. The
	// stamps are uint16 on purpose: the key table is the largest scratch
	// structure and the hot loop is bound by its cache misses, so halving
	// the entry size buys more than the rare wraparound clear costs.
	bepoch   uint16
	bKeyStmp []uint16 // len 1<<(totalBits+bshift)
	bVinStmp []uint16 // len 1<<(inBits+bshift)
	bCnt     []uint32 // len 1<<(inBits+bshift): distinct visible outputs per (group, chunk position)
	bVins    []uint32 // distinct strided visible-input keys seen this pass
}

// Compile lowers a module view (relation plus input/output attribute split)
// into its integer-coded form. It fails when the input or output domain
// products (or their product, the packed key space) overflow uint64, or when
// the universe exceeds MaxAttrs — callers should fall back to the
// interpreted path in those regimes.
func Compile(rel *relation.Relation, inputs, outputs []string) (*Compiled, error) {
	if rel == nil {
		return nil, fmt.Errorf("oracle: nil relation")
	}
	k := len(inputs) + len(outputs)
	if k > MaxAttrs {
		return nil, fmt.Errorf("oracle: %d attributes exceed the %d-bit mask universe", k, MaxAttrs)
	}
	s := rel.Schema()
	inCols, err := s.Columns(inputs)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	outCols, err := s.Columns(outputs)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	prodIn, ok := s.DomainProduct(inputs)
	if !ok {
		return nil, fmt.Errorf("oracle: input domain product overflows uint64")
	}
	prodOut, ok := s.DomainProduct(outputs)
	if !ok {
		return nil, fmt.Errorf("oracle: output domain product overflows uint64")
	}
	if prodOut != 0 && prodIn > math.MaxUint64/prodOut {
		return nil, fmt.Errorf("oracle: packed key space overflows uint64")
	}
	outSchema, err := s.Project(outputs)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}

	nIn, nOut := len(inputs), len(outputs)
	n := rel.Len()
	c := &Compiled{
		attrs:     append(append(make([]string, 0, k), inputs...), outputs...),
		nIn:       nIn,
		nOut:      nOut,
		inDoms:    make([]uint64, nIn),
		outDoms:   make([]uint64, nOut),
		n:         n,
		inDig:     make([]int32, n*nIn),
		outDig:    make([]int32, n*nOut),
		inCodeRow: make(map[uint64]int32, n),
		prodIn:    prodIn,
		prodOut:   prodOut,
		outSchema: outSchema,
	}
	for i, col := range inCols {
		c.inDoms[i] = uint64(s.Attr(col).Domain)
	}
	for j, col := range outCols {
		c.outDoms[j] = uint64(s.Attr(col).Domain)
	}
	// Compile against the deterministic row order so that compiled group
	// structure (and therefore iteration-order-free results) never depends
	// on insertion order.
	for r, row := range rel.SortedRows() {
		for i, col := range inCols {
			c.inDig[r*nIn+i] = int32(row[col])
		}
		for j, col := range outCols {
			c.outDig[r*nOut+j] = int32(row[col])
		}
		code := relation.EncodeCols(s, row, inCols)
		if _, seen := c.inCodeRow[code]; !seen {
			c.inCodeRow[code] = int32(r)
		}
	}
	c.finish()
	return c, nil
}

// finish derives everything the queries need from the primary tables
// (attrs, domains, digits, code index): the dense/packed-word dispatch,
// the equivalence classes, and the scratch pool.
func (c *Compiled) finish() {
	n := c.n
	c.dense = c.prodIn*c.prodOut <= denseMax
	c.compileBits()
	c.computeEquiv()
	c.scratch.New = func() any {
		sc := &callScratch{
			keys: make([]uint64, n),
			vins: make([]uint64, 0, n),
		}
		switch {
		case c.bitsOK:
			sc.bKeyStmp = make([]uint16, 1<<(c.totalBits+c.bshift))
			sc.bVinStmp = make([]uint16, 1<<(c.inBits+c.bshift))
			sc.bCnt = make([]uint32, 1<<(c.inBits+c.bshift))
			sc.bVins = make([]uint32, 0, n<<c.bshift)
		case c.dense:
			sc.keyStamp = make([]uint32, c.prodIn*c.prodOut)
			sc.vinStamp = make([]uint32, c.prodIn)
			sc.cnt = make([]uint32, c.prodIn)
		}
		return sc
	}
}

// fieldWidth returns the bit width of one attribute field: enough bits for
// every digit of the domain, zero for constant (single-value) domains.
func fieldWidth(dom uint64) int {
	if dom <= 1 {
		return 0
	}
	return bits.Len64(dom - 1)
}

// compileBits builds the packed-word fast path when every row fits bitsMax
// total field bits: digits concatenated as power-of-two fields, inputs in
// the low bits so the visible-input group key is a masked low sub-word.
func (c *Compiled) compileBits() {
	total := 0
	for _, d := range c.inDoms {
		total += fieldWidth(d)
	}
	inBits := total
	for _, d := range c.outDoms {
		total += fieldWidth(d)
	}
	if total > bitsMax {
		return
	}
	c.bitsOK = true
	c.totalBits = total
	c.inBits = inBits
	c.inFields = uint32(1)<<inBits - 1
	c.bshift = batchTableMax - total
	if c.bshift < 0 {
		c.bshift = 0
	}
	if c.bshift > maxBatchShift {
		c.bshift = maxBatchShift
	}
	c.fieldBits = make([]uint32, c.K())
	shifts := make([]int, c.K())
	off := 0
	for i := 0; i < c.nIn; i++ {
		w := fieldWidth(c.inDoms[i])
		c.fieldBits[i] = (uint32(1)<<w - 1) << off
		shifts[i] = off
		off += w
	}
	for j := 0; j < c.nOut; j++ {
		w := fieldWidth(c.outDoms[j])
		c.fieldBits[c.nIn+j] = (uint32(1)<<w - 1) << off
		shifts[c.nIn+j] = off
		off += w
	}
	c.rowBits = make([]uint32, c.n)
	for r := 0; r < c.n; r++ {
		var w uint32
		for i := 0; i < c.nIn; i++ {
			w |= uint32(c.inDig[r*c.nIn+i]) << shifts[i]
		}
		for j := 0; j < c.nOut; j++ {
			w |= uint32(c.outDig[r*c.nOut+j]) << shifts[c.nIn+j]
		}
		c.rowBits[r] = w
	}
}

// wordMask returns the packed-word projection mask of a visible mask: the
// union of the visible attributes' bit fields.
func (c *Compiled) wordMask(visible Mask) uint32 {
	var wm uint32
	for x := visible; x != 0; x &= x - 1 {
		wm |= c.fieldBits[bits.TrailingZeros32(uint32(x))]
	}
	return wm
}

// computeEquiv groups the universe into oracle-equivalence classes. Lemma 4
// sees an input attribute only through the row partition its column induces
// (visible input groups are the common refinement of the visible columns'
// partitions), so two inputs whose columns are equal up to value relabeling
// are interchangeable under every mask. An output attribute additionally
// contributes its domain size to the hidden volume, so outputs must match
// on the partition AND the domain. Only classes of size ≥ 2 are kept.
func (c *Compiled) computeEquiv() {
	groups := make(map[string][]int)
	order := make([]string, 0, c.K())
	norm := make([]byte, 4*c.n)
	relabel := make(map[int32]int32, 8)
	colKey := func(dig []int32, stride, off int) string {
		clear(relabel)
		next := int32(0)
		for r := 0; r < c.n; r++ {
			v := dig[r*stride+off]
			id, ok := relabel[v]
			if !ok {
				id = next
				relabel[v] = id
				next++
			}
			norm[4*r] = byte(id)
			norm[4*r+1] = byte(id >> 8)
			norm[4*r+2] = byte(id >> 16)
			norm[4*r+3] = byte(id >> 24)
		}
		return string(norm)
	}
	add := func(key string, idx int) {
		if _, seen := groups[key]; !seen {
			order = append(order, key)
		}
		groups[key] = append(groups[key], idx)
	}
	for i := 0; i < c.nIn; i++ {
		add("i:"+colKey(c.inDig, c.nIn, i), i)
	}
	for j := 0; j < c.nOut; j++ {
		add(fmt.Sprintf("o:%d:", c.outDoms[j])+colKey(c.outDig, c.nOut, j), c.nIn+j)
	}
	for _, key := range order {
		if members := groups[key]; len(members) >= 2 {
			c.equiv = append(c.equiv, members)
		}
	}
}

// EquivClasses returns the oracle-level attribute equivalence classes:
// groups of ≥ 2 universe indices (see Attrs) whose attributes the Lemma 4
// test cannot distinguish — swapping visibility of two class members leaves
// MinOutSize unchanged under every mask. Inputs qualify when their columns
// induce the same row partition; outputs additionally need equal domain
// size. Callers intersect these with equal hiding costs before using them
// for search symmetry breaking. Do not mutate the returned slices.
func (c *Compiled) EquivClasses() [][]int { return c.equiv }

// minOutBits is the packed-word single-mask test: per row one AND for the
// (visible-input, visible-output) key and one AND for the group key, counted
// in the strided epoch-stamped tables at chunk position 0.
func (c *Compiled) minOutBits(sc *callScratch, wm uint32, vol uint64) uint64 {
	c.bumpBitsEpoch(sc)
	epoch := sc.bepoch
	shift := c.bshift
	inWM := wm & c.inFields
	keyStmp, vinStmp, cnt := sc.bKeyStmp, sc.bVinStmp, sc.bCnt
	vins := sc.bVins
	for _, rw := range c.rowBits {
		w := rw & wm
		key := uint64(w) << shift
		if keyStmp[key] == epoch {
			continue
		}
		keyStmp[key] = epoch
		vinKey := (w & inWM) << shift
		if vinStmp[vinKey] != epoch {
			vinStmp[vinKey] = epoch
			cnt[vinKey] = 0
			vins = append(vins, vinKey)
		}
		cnt[vinKey]++
	}
	sc.bVins = vins
	min := uint64(math.MaxUint64)
	for _, vinKey := range vins {
		if size := satMul(uint64(cnt[vinKey]), vol); size < min {
			min = size
		}
	}
	return min
}

// minOutBitsChunk answers one chunk of ≤ 2^bshift masks over the shared
// rows: mask ci's keys live at stride position ci of the shared stamp
// tables, so chunk members can never collide and nothing is cleared
// between chunks. mins[ci] receives min_x |OUT_x| for chunk member ci.
// The row loop sits inside the mask loop so the per-mask constants (word
// mask, input projection, stride slot) stay in registers; the row words
// themselves are a small sequential array that stays cached across masks.
func (c *Compiled) minOutBitsChunk(sc *callScratch, wms []uint32, vols, mins []uint64) {
	c.bumpBitsEpoch(sc)
	epoch := sc.bepoch
	shift := c.bshift
	cn := len(wms)
	keyStmp, vinStmp, cnt := sc.bKeyStmp, sc.bVinStmp, sc.bCnt
	vins := sc.bVins
	rowBits := c.rowBits
	for ci := 0; ci < cn; ci++ {
		wm := wms[ci]
		inWM := wm & c.inFields
		ciKey := uint64(ci)
		ciKey32 := uint32(ci)
		for _, rw := range rowBits {
			pw := rw & wm
			key := uint64(pw)<<shift | ciKey
			if keyStmp[key] == epoch {
				continue
			}
			keyStmp[key] = epoch
			vinKey := (pw&inWM)<<shift | ciKey32
			if vinStmp[vinKey] != epoch {
				vinStmp[vinKey] = epoch
				cnt[vinKey] = 0
				vins = append(vins, vinKey)
			}
			cnt[vinKey]++
		}
	}
	sc.bVins = vins
	for i := range mins[:cn] {
		mins[i] = math.MaxUint64
	}
	low := uint32(1)<<shift - 1
	for _, vinKey := range vins {
		ci := vinKey & low
		if size := satMul(uint64(cnt[vinKey]), vols[ci]); size < mins[ci] {
			mins[ci] = size
		}
	}
}

// bumpBitsEpoch advances the packed-word stamp generation, clearing the
// tables only on uint32 wraparound.
func (c *Compiled) bumpBitsEpoch(sc *callScratch) {
	sc.bepoch++
	if sc.bepoch == 0 {
		clear(sc.bKeyStmp)
		clear(sc.bVinStmp)
		sc.bepoch = 1
	}
	sc.bVins = sc.bVins[:0]
}

// K returns the universe size (inputs + outputs).
func (c *Compiled) K() int { return c.nIn + c.nOut }

// Attrs returns the compiled attribute universe, inputs then outputs (do not
// mutate). Mask bit i refers to Attrs()[i].
func (c *Compiled) Attrs() []string { return c.attrs }

// Rows returns the number of compiled relation rows.
func (c *Compiled) Rows() int { return c.n }

// OutputSchema returns the schema over the output attributes; output codes
// decode against it via relation.Decode.
func (c *Compiled) OutputSchema() *relation.Schema { return c.outSchema }

// All returns the fully visible mask.
func (c *Compiled) All() Mask { return Mask(1)<<c.K() - 1 }

// MaskOf returns the visibility mask of the universe attributes present in
// set; names outside the universe are ignored (the same semantics as the
// interpreted path's FilterSorted).
func (c *Compiled) MaskOf(set relation.NameSet) Mask {
	var m Mask
	for i, a := range c.attrs {
		if set.Has(a) {
			m |= 1 << i
		}
	}
	return m
}

// hiddenVolume returns ∏ |∆a| over hidden output attributes, saturating at
// MaxUint64 on overflow (the interpreted path's "huge" convention).
func (c *Compiled) hiddenVolume(visible Mask) uint64 {
	vol := uint64(1)
	for j := 0; j < c.nOut; j++ {
		if visible&(1<<(c.nIn+j)) != 0 {
			continue
		}
		d := c.outDoms[j]
		if d != 0 && vol > math.MaxUint64/d {
			return math.MaxUint64
		}
		vol *= d
	}
	return vol
}

// visInCode packs row r's digits at the visible input attributes.
func (c *Compiled) visInCode(r int, visible Mask) uint64 {
	var code uint64
	base := r * c.nIn
	for i := 0; i < c.nIn; i++ {
		if visible&(1<<i) != 0 {
			code = code*c.inDoms[i] + uint64(c.inDig[base+i])
		}
	}
	return code
}

// visOutCode packs row r's digits at the visible output attributes.
func (c *Compiled) visOutCode(r int, visible Mask) uint64 {
	var code uint64
	base := r * c.nOut
	for j := 0; j < c.nOut; j++ {
		if visible&(1<<(c.nIn+j)) != 0 {
			code = code*c.outDoms[j] + uint64(c.outDig[base+j])
		}
	}
	return code
}

// visOutProd returns the domain product of the visible output attributes
// (the packed-key radix for visible-output codes).
func (c *Compiled) visOutProd(visible Mask) uint64 {
	prod := uint64(1)
	for j := 0; j < c.nOut; j++ {
		if visible&(1<<(c.nIn+j)) != 0 {
			prod *= c.outDoms[j]
		}
	}
	return prod
}

// MinOutSize returns min_x |OUT_x| under the visible mask — the Lemma 4
// closed form as pure integer operations on the compiled row codes. Small
// key spaces use epoch-stamped dense counting (O(N) per test, no sort, no
// clearing); larger ones sort the packed keys and scan group runs. Either
// way zero allocation in steady state; safe for concurrent use.
func (c *Compiled) MinOutSize(visible Mask) uint64 {
	if c.n == 0 {
		return 0
	}
	vol := c.hiddenVolume(visible)
	if c.bitsOK {
		sc := c.scratch.Get().(*callScratch)
		min := c.minOutBits(sc, c.wordMask(visible), vol)
		c.scratch.Put(sc)
		return min
	}

	// Visible column lists on the stack: the per-row loops then touch only
	// visible attributes, branch-free.
	var visIn, visOut [MaxAttrs]int
	nvi, nvo := 0, 0
	voutProd := uint64(1)
	for i := 0; i < c.nIn; i++ {
		if visible&(1<<i) != 0 {
			visIn[nvi] = i
			nvi++
		}
	}
	for j := 0; j < c.nOut; j++ {
		if visible&(1<<(c.nIn+j)) != 0 {
			visOut[nvo] = j
			nvo++
			voutProd *= c.outDoms[j]
		}
	}

	sc := c.scratch.Get().(*callScratch)
	var min uint64
	if c.dense {
		min = c.minOutDense(sc, visIn[:nvi], visOut[:nvo], voutProd, vol)
	} else {
		min = c.minOutSorted(sc, visIn[:nvi], visOut[:nvo], voutProd, vol)
	}
	c.scratch.Put(sc)
	return min
}

// rowKey packs row r's visible-input and visible-output codes into one key.
func (c *Compiled) rowKey(r int, visIn, visOut []int, voutProd uint64) (key, vin uint64) {
	inBase, outBase := r*c.nIn, r*c.nOut
	for _, i := range visIn {
		vin = vin*c.inDoms[i] + uint64(c.inDig[inBase+i])
	}
	var vout uint64
	for _, j := range visOut {
		vout = vout*c.outDoms[j] + uint64(c.outDig[outBase+j])
	}
	return vin*voutProd + vout, vin
}

// minOutDense counts distinct visible outputs per visible-input group with
// epoch-stamped tables: a (group, output) pair is new iff its key slot's
// stamp is stale, so the whole test is one O(N) pass.
func (c *Compiled) minOutDense(sc *callScratch, visIn, visOut []int, voutProd, vol uint64) uint64 {
	sc.epoch++
	if sc.epoch == 0 { // stamp wraparound: reset to a clean generation
		clear(sc.keyStamp)
		clear(sc.vinStamp)
		sc.epoch = 1
	}
	epoch := sc.epoch
	sc.vins = sc.vins[:0]
	for r := 0; r < c.n; r++ {
		key, vin := c.rowKey(r, visIn, visOut, voutProd)
		if sc.keyStamp[key] == epoch {
			continue
		}
		sc.keyStamp[key] = epoch
		if sc.vinStamp[vin] != epoch {
			sc.vinStamp[vin] = epoch
			sc.cnt[vin] = 0
			sc.vins = append(sc.vins, vin)
		}
		sc.cnt[vin]++
	}
	min := uint64(math.MaxUint64)
	for _, vin := range sc.vins {
		if size := satMul(uint64(sc.cnt[vin]), vol); size < min {
			min = size
		}
	}
	return min
}

// minOutSorted is the fallback for key spaces too large to stamp: sort the
// packed row keys and scan group runs.
func (c *Compiled) minOutSorted(sc *callScratch, visIn, visOut []int, voutProd, vol uint64) uint64 {
	keys := sc.keys[:c.n]
	for r := 0; r < c.n; r++ {
		keys[r], _ = c.rowKey(r, visIn, visOut, voutProd)
	}
	slices.Sort(keys)
	min := uint64(math.MaxUint64)
	groupStart := 0
	distinct := uint64(1)
	flush := func() {
		if size := satMul(distinct, vol); size < min {
			min = size
		}
	}
	for r := 1; r < c.n; r++ {
		if keys[r] == keys[r-1] {
			continue
		}
		if keys[r]/voutProd == keys[groupStart]/voutProd {
			distinct++ // same visible-input group, new visible-output pattern
			continue
		}
		flush()
		groupStart = r
		distinct = 1
	}
	flush()
	return min
}

// IsSafe reports whether the visible mask satisfies Definition 2 for Γ:
// min_x |OUT_x| >= Γ.
func (c *Compiled) IsSafe(visible Mask, gamma uint64) bool {
	return c.MinOutSize(visible) >= gamma
}

// MinOutSizeBatch answers MinOutSize for a whole slice of masks, sharing
// the per-row work across masks: on the packed-word path, chunks of up to
// 2^bshift masks are counted in ONE pass over the row words, with each
// row loaded once and projected onto every chunk member by a single AND.
// Oracles too wide for the packed-word path fall back to per-mask tests.
// The result is element-wise identical to calling MinOutSize per mask.
func (c *Compiled) MinOutSizeBatch(masks []Mask) []uint64 {
	out := make([]uint64, len(masks))
	if c.n == 0 {
		return out
	}
	if !c.bitsOK {
		for i, m := range masks {
			out[i] = c.MinOutSize(m)
		}
		return out
	}
	sc := c.scratch.Get().(*callScratch)
	chunk := 1 << c.bshift
	var wms [1 << maxBatchShift]uint32
	var vols [1 << maxBatchShift]uint64
	for start := 0; start < len(masks); start += chunk {
		end := start + chunk
		if end > len(masks) {
			end = len(masks)
		}
		cn := end - start
		for ci, m := range masks[start:end] {
			wms[ci] = c.wordMask(m)
			vols[ci] = c.hiddenVolume(m)
		}
		c.minOutBitsChunk(sc, wms[:cn], vols[:cn], out[start:end])
	}
	c.scratch.Put(sc)
	return out
}

// IsSafeBatch answers the Lemma 4 test for a slice of visible masks in
// batched row passes (see MinOutSizeBatch); out[i] is IsSafe(masks[i],
// gamma). Safe for concurrent use like every other query.
func (c *Compiled) IsSafeBatch(masks []Mask, gamma uint64) []bool {
	mins := c.MinOutSizeBatch(masks)
	out := make([]bool, len(masks))
	for i, m := range mins {
		out[i] = m >= gamma
	}
	return out
}

// inCodeOf packs an input tuple (aligned with the compiled input order) and
// validates arity and domain bounds.
func (c *Compiled) inCodeOf(x relation.Tuple) (uint64, error) {
	if len(x) != c.nIn {
		return 0, fmt.Errorf("oracle: input arity %d, want %d", len(x), c.nIn)
	}
	var code uint64
	for i, v := range x {
		if v < 0 || uint64(v) >= c.inDoms[i] {
			return 0, fmt.Errorf("oracle: input value %d out of domain [0,%d)", v, c.inDoms[i])
		}
		code = code*c.inDoms[i] + uint64(v)
	}
	return code, nil
}

// visInCodeOf packs an input tuple's visible digits.
func (c *Compiled) visInCodeOf(x relation.Tuple, visible Mask) uint64 {
	var code uint64
	for i, v := range x {
		if visible&(1<<i) != 0 {
			code = code*c.inDoms[i] + uint64(v)
		}
	}
	return code
}

// View precomputes the per-mask group structure: visible-input code → group
// id, each group's sorted distinct visible-output codes, and the group
// minimum — turning repeated OutSize/OutSet queries under one mask into
// O(1)–O(group) lookups. Views are immutable and safe for concurrent use.
type View struct {
	c         *Compiled
	visible   Mask
	hiddenVol uint64
	groupOf   map[uint64]int32 // visible-input code -> group id
	vouts     [][]uint64       // per group: sorted distinct visible-output codes
	minOut    uint64
}

// View compiles the group index for one visibility mask.
func (c *Compiled) View(visible Mask) *View {
	v := &View{
		c:         c,
		visible:   visible,
		hiddenVol: c.hiddenVolume(visible),
		groupOf:   make(map[uint64]int32),
		minOut:    math.MaxUint64,
	}
	if c.n == 0 {
		v.minOut = 0
		return v
	}
	for r := 0; r < c.n; r++ {
		vin := c.visInCode(r, visible)
		g, ok := v.groupOf[vin]
		if !ok {
			g = int32(len(v.vouts))
			v.groupOf[vin] = g
			v.vouts = append(v.vouts, nil)
		}
		v.vouts[g] = append(v.vouts[g], c.visOutCode(r, visible))
	}
	for g := range v.vouts {
		slices.Sort(v.vouts[g])
		v.vouts[g] = slices.Compact(v.vouts[g])
		if size := satMul(uint64(len(v.vouts[g])), v.hiddenVol); size < v.minOut {
			v.minOut = size
		}
	}
	return v
}

// MinOutSize returns min_x |OUT_x| for the view's mask.
func (v *View) MinOutSize() uint64 { return v.minOut }

// IsSafe reports min_x |OUT_x| >= Γ.
func (v *View) IsSafe(gamma uint64) bool { return v.minOut >= gamma }

// OutSize returns |OUT_x| for one input tuple x (aligned with the compiled
// input order): an O(1) group lookup. x must occur in the relation's input
// projection, as in the interpreted path.
func (v *View) OutSize(x relation.Tuple) (uint64, error) {
	g, err := v.group(x)
	if err != nil {
		return 0, err
	}
	return satMul(uint64(len(v.vouts[g])), v.hiddenVol), nil
}

func (v *View) group(x relation.Tuple) (int32, error) {
	code, err := v.c.inCodeOf(x)
	if err != nil {
		return 0, err
	}
	if _, present := v.c.inCodeRow[code]; !present {
		return 0, fmt.Errorf("oracle: input %v not in relation", x)
	}
	return v.groupOf[v.c.visInCodeOf(x, v.visible)], nil
}

// OutSet materializes OUT_x as a Bitset over full output codes (decode with
// OutputSchema): every y whose visible-output projection matches one of the
// group's patterns. It fails when the output domain is too large to
// materialize.
func (v *View) OutSet(x relation.Tuple) (Bitset, error) {
	g, err := v.group(x)
	if err != nil {
		return nil, err
	}
	c := v.c
	if c.prodOut > MaxOutSetDomain {
		return nil, fmt.Errorf("oracle: output domain %d too large for OUT-set materialization", c.prodOut)
	}
	// Project each full output code onto the visible output columns; codes
	// whose projection matches a group pattern are members.
	visCols := make([]int, 0, c.nOut)
	for j := 0; j < c.nOut; j++ {
		if v.visible&(1<<(c.nIn+j)) != 0 {
			visCols = append(visCols, j)
		}
	}
	proj, err := relation.NewCodeProjection(c.outSchema, visCols)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	patterns := v.vouts[g]
	bs := NewBitset(c.prodOut)
	for code := uint64(0); code < c.prodOut; code++ {
		if _, found := slices.BinarySearch(patterns, proj.Project(code)); found {
			bs.Set(code)
		}
	}
	return bs, nil
}

// OutSetTuples decodes OutSet into output tuples in ascending code order —
// the same order as the interpreted enumeration.
func (v *View) OutSetTuples(x relation.Tuple) ([]relation.Tuple, error) {
	bs, err := v.OutSet(x)
	if err != nil {
		return nil, err
	}
	out := make([]relation.Tuple, 0, bs.Count())
	bs.Each(func(code uint64) {
		out = append(out, relation.Decode(v.c.outSchema, code))
	})
	return out, nil
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

// Bitset is a dense bitset over integer codes, the OUT-set representation of
// the compiled layers (here and in internal/worlds).
type Bitset []uint64

// NewBitset returns a zeroed bitset holding codes in [0, n).
func NewBitset(n uint64) Bitset { return make(Bitset, (n+63)/64) }

// Set marks code i.
func (b Bitset) Set(i uint64) { b[i>>6] |= 1 << (i & 63) }

// Has reports whether code i is marked.
func (b Bitset) Has(i uint64) bool { return b[i>>6]&(1<<(i&63)) != 0 }

// Count returns the number of marked codes.
func (b Bitset) Count() uint64 {
	var n uint64
	for _, w := range b {
		n += uint64(bits.OnesCount64(w))
	}
	return n
}

// Or merges other into b (b |= other); the sets must be the same length.
func (b Bitset) Or(other Bitset) {
	for i, w := range other {
		b[i] |= w
	}
}

// SetAll marks every code in [0, n).
func (b Bitset) SetAll(n uint64) {
	for i := range b {
		b[i] = ^uint64(0)
	}
	if rem := n & 63; rem != 0 && len(b) > 0 {
		b[len(b)-1] = 1<<rem - 1
	}
}

// Each calls fn for every marked code in ascending order.
func (b Bitset) Each(fn func(code uint64)) {
	for i, w := range b {
		for w != 0 {
			fn(uint64(i)<<6 + uint64(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}
