package detect

import "sync/atomic"

// Ordinal is a line's access ordinal: the number of accesses the line has
// seen, on which sampling (§2.4.3) decides each access. Track and
// predict.VTrack embed it, so physical and virtual lines count alike.
//
// A line that counts alone takes each access's ordinal with one add. A line
// that has joined word counting (predict.Registry, DESIGN §5) also owns the
// counts pending on the counters of the 8-byte words it overlaps. Under the
// registry's mutex a fold moves those counts into the ordinal (Fold), and a
// plan gives each word a limit inside the unrecorded run of every line it
// counts for, and leaves the rest of each line's run as the line's allowance
// for the accesses it counts directly (Plan, Share, Take, Open). An access
// counted on an open word within its limit, or counted directly within the
// allowance, is certain to be unrecorded; every other access is decided on
// an exact ordinal, because a fold runs before it is decided.
//
//predlint:ignore padcheck per-line state embedded in every Track and VTrack: wc is written once, at join, and padding accesses from allow would grow every tracked line by a cache line
type Ordinal struct {
	sampler Sampler
	// accesses counts the accesses counted directly plus every word count
	// folded in; Accesses adds the counts still pending on the words.
	accesses atomic.Uint64
	// allow, while the line's words may count, is the direct count up to
	// which an access is certain to be unrecorded; 0 while the line decides
	// every access on its own ordinal.
	allow atomic.Uint64
	// wc is the line's word counting, nil while it counts alone.
	wc atomic.Pointer[wordCounts]
}

// wordCounts is an ordinal's place in word counting.
type wordCounts struct {
	ctr    []*WordCounter // the counters of the words the line overlaps
	folder Folder         // the registry, for a track; nil for a virtual line
	// The plan's working values, used only under the registry's mutex.
	runEnd, share, sum uint64
}

// Folder is the registry a track's line joined for word counting
// (predict.Registry): a track calls it when a direct access passes its
// allowance, and when its burst ends so that its words can reopen.
type Folder interface {
	// Settle folds every pending word count into the ordinals of the lines
	// it belongs to; when t is not nil, it decides t's access on t's folded
	// ordinal (Track.Decide) and reports whether the access invalidated the
	// line; then it replans the words. word is -1 for a direct access; for
	// an access that passed the limit of word (a word index in t's line), the
	// virtual lines counting on that word give the access back, to count it
	// when it is routed.
	Settle(t *Track, word int, tid int, addr, size uint64, isWrite bool) bool
}

// NewOrdinal returns an ordinal that counts alone and samples with the given
// policy.
func NewOrdinal(s Sampler) Ordinal {
	return Ordinal{sampler: NewSampler(s.Window, s.Burst)}
}

// Join makes the ordinal count on the word counters ctr as well, with f as
// the registry that folds them (nil for a virtual line). The registry calls
// it under its mutex, while every counter in ctr is closed.
func (o *Ordinal) Join(ctr []*WordCounter, f Folder) {
	o.wc.Store(&wordCounts{ctr: ctr, folder: f})
}

// Joined reports whether the ordinal counts on word counters.
func (o *Ordinal) Joined() bool { return o.wc.Load() != nil }

// Count counts one access directly. It returns the access's ordinal, or 0
// when the line's words may hold pending counts: the access is then certain
// to be unrecorded, unless fold is set because it passed the line's
// allowance, and the caller must decide it on the folded ordinal.
func (o *Ordinal) Count() (n uint64, fold bool) {
	n = o.accesses.Add(1)
	if allow := o.allow.Load(); allow != 0 {
		return 0, n > allow
	}
	return n, false
}

// SamplerConfig returns the line's sampling policy.
func (o *Ordinal) SamplerConfig() Sampler { return o.sampler }

// Folded returns the ordinal counted so far, the last access's ordinal
// right after a fold.
func (o *Ordinal) Folded() uint64 { return o.accesses.Load() }

// Fold adds c accesses counted on one of the line's words. Call under the
// registry's mutex.
func (o *Ordinal) Fold(c uint64) { o.accesses.Add(c) }

// GiveBack takes back one access that a fold moved in, so that counting
// the access again leaves the ordinal exact. Call under the registry's
// mutex.
func (o *Ordinal) GiveBack() { o.accesses.Add(^uint64(0)) }

// Accesses returns the number of accesses the line has seen: those counted
// directly or folded in, plus those still pending on its words. Exact once
// accesses have stopped; while they run, it can miss a count that a
// concurrent fold is moving from a word to the line.
func (o *Ordinal) Accesses() uint64 {
	n := o.accesses.Load()
	if wc := o.wc.Load(); wc != nil {
		for _, c := range wc.ctr {
			n += c.pending()
		}
	}
	return n
}

// maxWordLimit caps a word's limit so that its count, which racing accesses
// may carry a little past the limit, stays within 32 bits.
const maxWordLimit = 1 << 31

// Plan starts a plan after a fold: the line shares half of the unrecorded
// run ahead of it evenly among its words (0 inside its burst, or too close
// to it). Call under the registry's mutex, on a joined ordinal.
func (o *Ordinal) Plan() {
	wc := o.wc.Load()
	n := o.accesses.Load()
	run := o.sampler.SkipAfter(n)
	wc.runEnd, wc.sum = n+run, 0
	wc.share = min(run/uint64(2*len(wc.ctr)), maxWordLimit)
}

// Share returns the planned share of each of the line's words.
func (o *Ordinal) Share() uint64 { return o.wc.Load().share }

// Take notes that one of the line's words got limit lim.
func (o *Ordinal) Take(lim uint64) { o.wc.Load().sum += lim }

// Open publishes the line's allowance: the rest of its run once its words
// have taken their limits, or 0 when its share is 0 and it decides every
// access on its own ordinal. Call before any of the line's words opens.
func (o *Ordinal) Open() {
	wc := o.wc.Load()
	var allow uint64
	if wc.share > 0 {
		allow = wc.runEnd - wc.sum
	}
	o.allow.Store(allow)
}

// WordCounter counts the accesses to one 8-byte word for every line that
// counts on it (see Ordinal), packed as limit<<32 | count. A word is open
// while its limit is nonzero.
type WordCounter struct{ v atomic.Uint64 }

// Count counts one access on the word when it is open. It reports whether
// the word was open, and whether the count stayed within its limit: when it
// did not, the access must be decided on the folded ordinals of the word's
// lines.
func (c *WordCounter) Count() (open, within bool) {
	if c.v.Load()>>32 == 0 {
		return false, false
	}
	x := c.v.Add(1)
	return true, uint32(x) <= uint32(x>>32)
}

// Take closes the word and returns its pending count, for a fold.
func (c *WordCounter) Take() uint64 {
	if c.v.Load() == 0 {
		return 0
	}
	return uint64(uint32(c.v.Swap(0)))
}

// Reopen gives the word limit lim after a fold. Adding the limit, not
// storing it, keeps the counts of accesses that raced the fold.
func (c *WordCounter) Reopen(lim uint64) {
	if lim > 0 {
		c.v.Add(lim << 32)
	}
}

// pending returns the count not yet folded.
func (c *WordCounter) pending() uint64 { return uint64(uint32(c.v.Load())) }
