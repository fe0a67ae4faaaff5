// Package cache implements a functional set-associative write-back,
// write-allocate cache with true LRU replacement and the per-block
// metadata the power/capacity-scaling mechanism needs: Valid, Dirty and
// Faulty bits. Faulty blocks never hit and are never chosen for fill
// (the paper's correctness requirements); if every way of a set is
// faulty the access bypasses the cache (the design-time voltage
// selection makes this astronomically rare, but the model stays safe).
//
// The cache is purely functional/structural: latencies and energies are
// accounted by the callers (internal/cpusim and internal/core), which
// also drive voltage transitions by manipulating the Faulty bits through
// the metadata accessors.
//
// Internally the per-frame metadata is packed for the access hot path:
// the Valid/Dirty/Faulty bits of one set live in per-set uint64 way
// bitmasks (hence Assoc ≤ 64), and tags and LRU stamps are flat slices
// indexed once per access. Hit probing walks only the usable ways via
// bits.TrailingZeros64 over valid&^faulty, in ascending way order —
// identical outcomes to a per-way scan, observed by the differential
// test against the retained reference implementation.
package cache

import (
	"fmt"
	"math/bits"
)

// Stats accumulates access statistics.
type Stats struct {
	Accesses   uint64 `json:"accesses"` // total demand accesses
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Reads      uint64 `json:"reads"`
	Writes     uint64 `json:"writes"`
	Writebacks uint64 `json:"writebacks"` // dirty evictions pushed to the next level
	Fills      uint64 `json:"fills"`      // blocks allocated
	Bypasses   uint64 `json:"bypasses"`   // accesses that found no usable frame
	Invals     uint64 `json:"invals"`     // blocks invalidated (transitions etc.)
}

// MissRate returns misses per access, or 0 with no accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Sub returns the difference s - t, field-wise; used for interval stats.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Accesses:   s.Accesses - t.Accesses,
		Hits:       s.Hits - t.Hits,
		Misses:     s.Misses - t.Misses,
		Reads:      s.Reads - t.Reads,
		Writes:     s.Writes - t.Writes,
		Writebacks: s.Writebacks - t.Writebacks,
		Fills:      s.Fills - t.Fills,
		Bypasses:   s.Bypasses - t.Bypasses,
		Invals:     s.Invals - t.Invals,
	}
}

// Cache is one level of set-associative cache.
type Cache struct {
	name       string
	sets       int
	ways       int
	blockBytes int
	setShift   uint // log2(blockBytes)
	setBits    uint // log2(sets)
	setMask    uint64
	waysMask   uint64 // low `ways` bits set

	// Per-frame state, flat sets*ways row-major by set.
	tags []uint64
	lru  []uint64 // larger = more recently used

	// Per-set way bitmasks: bit w of valid[s] is frame (s,w)'s Valid bit.
	valid  []uint64
	dirty  []uint64
	faulty []uint64

	lruClock uint64
	stats    Stats

	// Last-hit memo: the block number and frame location of the most
	// recently touched (hit or filled) frame. A repeat access to the
	// same block skips the set probe entirely and applies the hit
	// effects directly — sequential streams touch a 64 B block eight
	// times in a row, so this is the common case. The memo frame is by
	// construction valid and non-faulty; InvalidateFrame and SetFaulty
	// (the only external mutators of frame state) drop the memo.
	lastBlk uint64
	lastIdx int
	lastSet int
	lastBit uint64
	lastOK  bool
}

// Config describes a cache's geometry.
type Config struct {
	Name       string
	SizeBytes  int
	Assoc      int
	BlockBytes int
}

// New builds a cache. Sizes must be powers of two and associativity at
// most 64 (one uint64 way bitmask per set).
func New(cfg Config) (*Cache, error) {
	if cfg.SizeBytes <= 0 || cfg.Assoc <= 0 || cfg.BlockBytes <= 0 {
		return nil, fmt.Errorf("cache: %s: non-positive geometry", cfg.Name)
	}
	if cfg.Assoc > 64 {
		return nil, fmt.Errorf("cache: %s: associativity %d exceeds 64", cfg.Name, cfg.Assoc)
	}
	if cfg.SizeBytes%(cfg.Assoc*cfg.BlockBytes) != 0 {
		return nil, fmt.Errorf("cache: %s: size %d not divisible by assoc*block", cfg.Name, cfg.SizeBytes)
	}
	sets := cfg.SizeBytes / (cfg.Assoc * cfg.BlockBytes)
	for _, v := range []int{cfg.BlockBytes, sets} {
		if v&(v-1) != 0 {
			return nil, fmt.Errorf("cache: %s: %d is not a power of two", cfg.Name, v)
		}
	}
	return &Cache{
		name:       cfg.Name,
		sets:       sets,
		ways:       cfg.Assoc,
		blockBytes: cfg.BlockBytes,
		setShift:   uint(bits.Len(uint(cfg.BlockBytes)) - 1),
		setBits:    uint(bits.Len(uint(sets)) - 1),
		setMask:    uint64(sets - 1),
		waysMask:   ^uint64(0) >> (64 - uint(cfg.Assoc)),
		tags:       make([]uint64, sets*cfg.Assoc),
		lru:        make([]uint64, sets*cfg.Assoc),
		valid:      make([]uint64, sets),
		dirty:      make([]uint64, sets),
		faulty:     make([]uint64, sets),
	}, nil
}

// MustNew is New that panics on error, for tests and fixed configs.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Name returns the cache's label.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// BlockBytes returns the block size.
func (c *Cache) BlockBytes() int { return c.blockBytes }

// NumBlocks returns sets*ways.
func (c *Cache) NumBlocks() int { return c.sets * c.ways }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Accesses returns the demand-access count alone, without copying the
// whole Stats struct. The DPCS quiescence check polls it once per
// access, so it must stay inlinable.
func (c *Cache) Accesses() uint64 { return c.stats.Accesses }

// ResetStats zeroes the statistics (contents are untouched).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Reset returns the cache to the state New constructs, reusing the
// packed metadata slices so arena-style callers (internal/cpusim's
// simulation arena) can recycle one allocation across consecutive
// campaign cells. Only the per-set Valid/Dirty/Faulty bitmasks, the
// statistics, the LRU clock and the last-hit memo are cleared; the tag
// and LRU-stamp slices keep their stale contents, which is
// observationally identical to fresh zeroed slices: a frame's tag is
// only ever read while its Valid bit is set (hit probe, writeback of a
// valid victim), and LRU stamps are only compared when every available
// way is valid — both states are reachable only after the frame was
// (re)written post-Reset. Victim selection prefers the lowest-numbered
// invalid way, so the first fills after Reset land exactly where they
// would in a new cache.
func (c *Cache) Reset() {
	clear(c.valid)
	clear(c.dirty)
	clear(c.faulty)
	c.lruClock = 0
	c.stats = Stats{}
	c.lastBlk = 0
	c.lastIdx = 0
	c.lastSet = 0
	c.lastBit = 0
	c.lastOK = false
}

// indexOf splits an address into set index and tag.
func (c *Cache) indexOf(addr uint64) (set int, tag uint64) {
	blk := addr >> c.setShift
	return int(blk & c.setMask), blk >> c.setBits
}

// BlockIndex returns the flat block index of (set, way), the key used by
// the fault map.
func (c *Cache) BlockIndex(set, way int) int { return set*c.ways + way }

// checkFrame bounds-checks (set, way) for the metadata accessors; the
// access hot path indexes the packed slices directly instead.
func (c *Cache) checkFrame(set, way int) {
	if set < 0 || set >= c.sets || way < 0 || way >= c.ways {
		panic(fmt.Sprintf("cache: %s: frame (%d,%d) out of %dx%d", c.name, set, way, c.sets, c.ways))
	}
}

// AccessResult describes the outcome of one access.
type AccessResult struct {
	// Hit is true when the block was present (and non-faulty).
	Hit bool
	// Bypass is true when the access missed and no usable frame existed
	// (all ways faulty); the block was not allocated.
	Bypass bool
	// Writeback is true when a dirty victim was evicted; WritebackAddr
	// is its block-aligned address, to be written to the next level.
	Writeback     bool
	WritebackAddr uint64
	// Fill is true when the block was allocated (every non-bypass miss).
	Fill bool
}

// Access performs one demand access (write=true for stores). On a miss
// the block is allocated (write-allocate) into the LRU non-faulty way,
// evicting and possibly writing back the victim.
func (c *Cache) Access(addr uint64, write bool) AccessResult {
	// Repeat access to the memoized block: identical observable effects
	// to the probe-loop hit in accessSlow, with the set/tag lookup
	// skipped. The slow path is outlined so this wrapper stays within
	// the inlining budget — sequential streams touch a block many times
	// in a row, and the call overhead would otherwise dominate the hit.
	if c.FastHit(addr, write) {
		return AccessResult{Hit: true}
	}
	return c.AccessFull(addr, write)
}

// FastHit applies the memoized-hit path when addr repeats the most
// recently touched block, returning whether it handled the access. Its
// effects are identical to the probe-loop hit in accessSlow. It is
// exported (and kept within the inlining budget) so simulator inner
// loops can take the hit path without the AccessResult return-value
// traffic of Access; calling Access directly remains equivalent.
func (c *Cache) FastHit(addr uint64, write bool) bool {
	if !c.lastOK || addr>>c.setShift != c.lastBlk {
		return false
	}
	c.stats.Accesses++
	c.stats.Hits++
	if write {
		c.stats.Writes++
		c.dirty[c.lastSet] |= c.lastBit
	} else {
		c.stats.Reads++
	}
	c.lruClock++
	c.lru[c.lastIdx] = c.lruClock
	return true
}

// AccessFull is the full probe/miss path of Access. Callers that have
// already tried FastHit (simulator inner loops) call it directly to
// skip the wrapper; Access(addr, w) ≡ FastHit(addr, w) ? hit :
// AccessFull(addr, w), and AccessFull alone is also a complete,
// correct access — the fast path is purely an optimization.
func (c *Cache) AccessFull(addr uint64, write bool) AccessResult {
	c.stats.Accesses++
	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	set, tag := c.indexOf(addr)
	c.lruClock++
	base := set * c.ways

	// Hit check: only valid non-faulty ways can hit, which is exactly
	// the valid&^faulty bitmask (Faulty implies not Valid by invariant;
	// the mask keeps the exclusion explicit).
	for m := c.valid[set] &^ c.faulty[set]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if c.tags[base+w] == tag {
			c.stats.Hits++
			c.lru[base+w] = c.lruClock
			if write {
				c.dirty[set] |= 1 << uint(w)
			}
			c.lastBlk = addr >> c.setShift
			c.lastIdx = base + w
			c.lastSet = set
			c.lastBit = 1 << uint(w)
			c.lastOK = true
			return AccessResult{Hit: true}
		}
	}
	c.stats.Misses++

	// Victim selection: LRU among non-faulty ways, preferring the
	// lowest-numbered invalid one.
	avail := c.waysMask &^ c.faulty[set]
	if avail == 0 {
		c.stats.Bypasses++
		return AccessResult{Bypass: true}
	}
	var victim int
	if inv := avail &^ c.valid[set]; inv != 0 {
		victim = bits.TrailingZeros64(inv)
	} else {
		victim = -1
		var oldest uint64
		for m := avail; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			if victim == -1 || c.lru[base+w] < oldest {
				victim = w
				oldest = c.lru[base+w]
			}
		}
	}

	res := AccessResult{Fill: true}
	vbit := uint64(1) << uint(victim)
	if c.valid[set]&c.dirty[set]&vbit != 0 {
		res.Writeback = true
		res.WritebackAddr = c.addrOf(set, c.tags[base+victim])
		c.stats.Writebacks++
	}
	c.tags[base+victim] = tag
	c.valid[set] |= vbit
	if write {
		c.dirty[set] |= vbit
	} else {
		c.dirty[set] &^= vbit
	}
	c.lru[base+victim] = c.lruClock
	c.stats.Fills++
	c.lastBlk = addr >> c.setShift
	c.lastIdx = base + victim
	c.lastSet = set
	c.lastBit = vbit
	c.lastOK = true
	return res
}

// addrOf reconstructs the block-aligned address of (set, tag).
func (c *Cache) addrOf(set int, tag uint64) uint64 {
	return (tag<<c.setBits | uint64(set)) << c.setShift
}

// findWay locates the valid, non-faulty way holding tag in set, or -1.
func (c *Cache) findWay(set int, tag uint64) int {
	base := set * c.ways
	for m := c.valid[set] &^ c.faulty[set]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if c.tags[base+w] == tag {
			return w
		}
	}
	return -1
}

// FindFrame locates the valid, non-faulty frame holding addr, if any,
// without touching LRU state or statistics. Coherence controllers use it
// to invalidate remote copies.
func (c *Cache) FindFrame(addr uint64) (set, way int, ok bool) {
	s, tag := c.indexOf(addr)
	if w := c.findWay(s, tag); w >= 0 {
		return s, w, true
	}
	return 0, 0, false
}

// Probe reports whether addr is present (valid, non-faulty) without
// touching LRU state or statistics.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.indexOf(addr)
	return c.findWay(set, tag) >= 0
}

// BlockMeta is a read-only snapshot of one frame's metadata.
type BlockMeta struct {
	Valid  bool
	Dirty  bool
	Faulty bool
	Addr   uint64 // block-aligned address, meaningful when Valid
}

// Meta returns the metadata snapshot of frame (set, way).
func (c *Cache) Meta(set, way int) BlockMeta {
	c.checkFrame(set, way)
	bit := uint64(1) << uint(way)
	return BlockMeta{
		Valid:  c.valid[set]&bit != 0,
		Dirty:  c.dirty[set]&bit != 0,
		Faulty: c.faulty[set]&bit != 0,
		Addr:   c.addrOf(set, c.tags[set*c.ways+way]),
	}
}

// InvalidateFrame clears Valid and Dirty of frame (set, way), returning
// whether a writeback is needed (it was valid and dirty). The caller is
// responsible for pushing the writeback to the next level first.
func (c *Cache) InvalidateFrame(set, way int) (needWriteback bool, addr uint64) {
	c.checkFrame(set, way)
	bit := uint64(1) << uint(way)
	needWriteback = c.valid[set]&c.dirty[set]&bit != 0
	addr = c.addrOf(set, c.tags[set*c.ways+way])
	if c.valid[set]&bit != 0 {
		c.stats.Invals++
	}
	c.valid[set] &^= bit
	c.dirty[set] &^= bit
	c.lastOK = false
	return needWriteback, addr
}

// SetFaulty sets or clears the Faulty bit of frame (set, way). Setting
// Faulty on a valid frame clears Valid (the paper: "any block that has
// Faulty set has Valid cleared"); the caller must have handled any
// needed writeback via InvalidateFrame first.
func (c *Cache) SetFaulty(set, way int, faulty bool) {
	c.checkFrame(set, way)
	bit := uint64(1) << uint(way)
	if faulty {
		c.faulty[set] |= bit
		c.valid[set] &^= bit
		c.dirty[set] &^= bit
	} else {
		c.faulty[set] &^= bit
	}
	c.lastOK = false
}

// FaultyCount returns the number of frames currently marked faulty.
func (c *Cache) FaultyCount() int {
	n := 0
	for _, m := range c.faulty {
		n += bits.OnesCount64(m)
	}
	return n
}

// ValidCount returns the number of valid frames.
func (c *Cache) ValidCount() int {
	n := 0
	for _, m := range c.valid {
		n += bits.OnesCount64(m)
	}
	return n
}

// FaultyMask returns the faulty-way bitmask of one set (bit w set ⇔
// frame (set,w) faulty). Voltage-transition code uses it to find
// changed blocks without probing every frame.
func (c *Cache) FaultyMask(set int) uint64 {
	if set < 0 || set >= c.sets {
		panic(fmt.Sprintf("cache: %s: set %d out of %d", c.name, set, c.sets))
	}
	return c.faulty[set]
}

// FlushAll writes back and invalidates every valid frame, invoking sink
// for each dirty block. Used at end-of-simulation accounting.
func (c *Cache) FlushAll(sink func(addr uint64)) {
	for s := 0; s < c.sets; s++ {
		for w := 0; w < c.ways; w++ {
			if need, addr := c.InvalidateFrame(s, w); need && sink != nil {
				sink(addr)
			}
		}
	}
}

// CheckInvariants validates internal consistency: faulty frames must be
// invalid, and no set may hold two valid frames with the same tag.
// It returns the first violation found, or nil.
func (c *Cache) CheckInvariants() error {
	if c.lastOK {
		set := int(c.lastBlk & c.setMask)
		way := c.lastIdx - set*c.ways
		if set != c.lastSet || way < 0 || way >= c.ways || c.lastBit != 1<<uint(way) {
			return fmt.Errorf("cache: %s: memo location inconsistent: blk %#x idx %d set %d bit %#x",
				c.name, c.lastBlk, c.lastIdx, c.lastSet, c.lastBit)
		}
		if c.valid[set]&c.lastBit == 0 || c.faulty[set]&c.lastBit != 0 {
			return fmt.Errorf("cache: %s: memo points at invalid or faulty frame (%d,%d)", c.name, set, way)
		}
		if c.tags[c.lastIdx] != c.lastBlk>>c.setBits {
			return fmt.Errorf("cache: %s: memo tag mismatch at (%d,%d)", c.name, set, way)
		}
	}
	for s := 0; s < c.sets; s++ {
		if bad := c.faulty[s] & c.valid[s]; bad != 0 {
			w := bits.TrailingZeros64(bad)
			return fmt.Errorf("cache: %s: set %d way %d is faulty yet valid", c.name, s, w)
		}
		// Duplicate-tag scan over the packed tag slice: for each valid
		// way, compare against the valid ways after it. Associativity is
		// ≤ 64, so the quadratic scan is cheap and allocation-free.
		base := s * c.ways
		for m := c.valid[s]; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			for m2 := m & (m - 1); m2 != 0; m2 &= m2 - 1 {
				w2 := bits.TrailingZeros64(m2)
				if c.tags[base+w] == c.tags[base+w2] {
					return fmt.Errorf("cache: %s: set %d ways %d and %d share tag %#x",
						c.name, s, w, w2, c.tags[base+w])
				}
			}
		}
	}
	return nil
}
