// Package cache implements a trace-driven cache simulator.
//
// The paper's miss-rate results come from simulating the Sun UltraSparc2
// memory hierarchy: a 16KB direct-mapped L1 with 32-byte lines and a
// write-around (write-through, no-write-allocate) policy, backed by a 2MB
// direct-mapped L2 with 64-byte lines. This package reproduces those
// geometries and also supports set-associative (LRU) caches and a
// write-allocate policy so the sensitivity of the paper's conclusions to
// the cache model can be explored.
//
// Addresses are byte addresses. The simulator is purely functional with
// respect to data (it tracks only tags), so it can replay address traces
// from the iteration-space walkers without touching array contents.
package cache

import "fmt"

// Config describes one cache level.
type Config struct {
	// SizeBytes is the total capacity in bytes.
	SizeBytes int
	// LineBytes is the line (block) size in bytes. Must divide SizeBytes.
	LineBytes int
	// Assoc is the set associativity; 1 (or 0) means direct-mapped.
	// Assoc == Lines() means fully associative.
	Assoc int
	// WriteAllocate selects the write-miss policy. The paper assumes
	// write-around caches (false): a store that misses does not allocate
	// a line and therefore cannot evict reusable data.
	WriteAllocate bool
	// NextLinePrefetch models the simplest hardware prefetcher: a load
	// miss also installs the following line. The paper's UltraSparc2 had
	// none; enabling it probes how much of the paper's effect survives
	// on prefetching hardware (sequential misses hide, conflict misses
	// do not).
	NextLinePrefetch bool
}

// Lines returns the number of cache lines.
func (c Config) Lines() int { return c.SizeBytes / c.LineBytes }

// Sets returns the number of cache sets.
func (c Config) Sets() int {
	a := c.Assoc
	if a <= 0 {
		a = 1
	}
	return c.Lines() / a
}

// Elems returns the capacity in array elements of the given size, the unit
// the paper's algorithms work in (C_s). A 16KB cache holds 2048 doubles.
func (c Config) Elems(elemSize int) int { return c.SizeBytes / elemSize }

// Validate checks the geometry: positive capacity and line size, a
// power-of-two line size that divides the capacity, and an associativity
// that divides the line count. Experiment harnesses call it once up
// front so bad flag values surface as errors rather than panics deep in
// a sweep.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache: non-positive geometry (size %dB, line %dB)", c.SizeBytes, c.LineBytes)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %dB is not a power of two", c.LineBytes)
	}
	if c.SizeBytes%c.LineBytes != 0 {
		return fmt.Errorf("cache: line size %d does not divide capacity %d", c.LineBytes, c.SizeBytes)
	}
	if c.Assoc < 0 {
		return fmt.Errorf("cache: negative associativity %d", c.Assoc)
	}
	a := c.Assoc
	if a == 0 {
		a = 1
	}
	if c.Lines()%a != 0 {
		return fmt.Errorf("cache: associativity %d does not divide line count %d", a, c.Lines())
	}
	return nil
}

// String renders the geometry, e.g. "16KB direct-mapped, 32B lines".
func (c Config) String() string {
	sz := fmt.Sprintf("%dB", c.SizeBytes)
	switch {
	case c.SizeBytes >= 1<<20 && c.SizeBytes%(1<<20) == 0:
		sz = fmt.Sprintf("%dMB", c.SizeBytes>>20)
	case c.SizeBytes >= 1<<10 && c.SizeBytes%(1<<10) == 0:
		sz = fmt.Sprintf("%dKB", c.SizeBytes>>10)
	}
	way := "direct-mapped"
	if c.Assoc > 1 {
		way = fmt.Sprintf("%d-way", c.Assoc)
	}
	return fmt.Sprintf("%s %s, %dB lines", sz, way, c.LineBytes)
}

// UltraSparc2L1 is the paper's primary target cache: 16KB direct-mapped,
// 32-byte lines, write-around.
func UltraSparc2L1() Config {
	return Config{SizeBytes: 16 << 10, LineBytes: 32, Assoc: 1}
}

// UltraSparc2L2 is the paper's secondary cache: 2MB direct-mapped,
// 64-byte lines. Unlike the write-around L1, the UltraSparc2 external
// cache allocates on writes (it is a write-back cache), which is what
// keeps store traffic from counting as a perpetual L2 miss stream.
func UltraSparc2L2() Config {
	return Config{SizeBytes: 2 << 20, LineBytes: 64, Assoc: 1, WriteAllocate: true}
}

// Stats counts accesses and misses, split by loads and stores.
type Stats struct {
	Loads, Stores           uint64
	LoadMisses, StoreMisses uint64
	// Writebacks counts dirty lines evicted from a write-allocate
	// (write-back) cache; always zero for write-around caches, whose
	// stores propagate immediately.
	Writebacks uint64
	// Prefetches counts next-line installs issued by the prefetcher.
	// They are not accesses and never count as hits or misses.
	Prefetches uint64
}

// Accesses returns the total number of accesses.
func (s Stats) Accesses() uint64 { return s.Loads + s.Stores }

// Misses returns the total number of misses (loads + stores).
func (s Stats) Misses() uint64 { return s.LoadMisses + s.StoreMisses }

// MissRate returns overall misses / accesses in percent, counting a
// write-around store that finds no line as a miss (it must go to the next
// level). This matches the accounting that reproduces the paper's
// original-code miss rates.
func (s Stats) MissRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return 100 * float64(s.Misses()) / float64(a)
}

// LoadMissRate returns load misses / loads in percent.
func (s Stats) LoadMissRate() float64 {
	if s.Loads == 0 {
		return 0
	}
	return 100 * float64(s.LoadMisses) / float64(s.Loads)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Loads += other.Loads
	s.Stores += other.Stores
	s.LoadMisses += other.LoadMisses
	s.StoreMisses += other.StoreMisses
	s.Writebacks += other.Writebacks
	s.Prefetches += other.Prefetches
}

// TrafficBytes estimates the memory traffic below a write-back cache
// level: a line filled per miss plus a line written per writeback. For a
// write-through level the store traffic is the stores themselves and is
// not included here.
func (s Stats) TrafficBytes(lineBytes int) uint64 {
	return (s.Misses() + s.Writebacks) * uint64(lineBytes)
}

// Cache simulates one cache level.
type Cache struct {
	cfg       Config
	assoc     int
	sets      int
	lineShift uint
	setMask   int64 // sets-1 when sets is a power of two, else 0
	pow2      bool

	// tags[set*assoc+way] holds the line tag (full line address) or -1.
	tags []int64
	// dirty[set*assoc+way] marks modified lines (write-back caches only).
	dirty []bool
	// stamp[set*assoc+way] holds the LRU timestamp (only when assoc > 1).
	stamp []uint64
	clock uint64

	stats Stats

	// memo caches the batched-replay conflict partition (replay.go);
	// self lets the single-level ReplayRuns share the hierarchy engine.
	memo replayMemo
	self [1]*Cache
}

// New builds a cache level, returning an error for an invalid geometry
// (see Config.Validate). Use MustNew for geometries known good by
// construction.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	assoc := cfg.Assoc
	if assoc <= 0 {
		assoc = 1
	}
	c := &Cache{
		cfg:   cfg,
		assoc: assoc,
		sets:  cfg.Lines() / assoc,
	}
	for s := cfg.LineBytes; s > 1; s >>= 1 {
		c.lineShift++
	}
	if c.sets&(c.sets-1) == 0 {
		c.pow2 = true
		c.setMask = int64(c.sets - 1)
	}
	c.tags = make([]int64, c.sets*assoc)
	c.dirty = make([]bool, c.sets*assoc)
	if assoc > 1 {
		c.stamp = make([]uint64, c.sets*assoc)
	}
	c.Reset()
	return c, nil
}

// MustNew builds a cache level and panics on an invalid geometry. It is
// the constructor for configurations that are valid by construction
// (the paper's fixed machines, geometries already vetted by
// Config.Validate); code handling external input should use New.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the geometry the cache was built with.
func (c *Cache) Config() Config { return c.cfg }

// Reset empties the cache and zeroes its statistics.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = -1
	}
	for i := range c.dirty {
		c.dirty[i] = false
	}
	for i := range c.stamp {
		c.stamp[i] = 0
	}
	c.clock = 0
	c.stats = Stats{}
}

// ResetStats zeroes the statistics without emptying the cache, so warm-up
// traffic can be excluded from measurement.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Stats returns the access/miss counters.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) set(line int64) int {
	if c.pow2 {
		return int(line & c.setMask)
	}
	return int(line % int64(c.sets))
}

// probe looks the line up, returning its slot and refreshing the LRU
// stamp on a hit. slot is -1 on a miss.
func (c *Cache) probe(line int64) int {
	if c.assoc == 1 {
		s := c.set(line)
		if c.tags[s] == line {
			return s
		}
		return -1
	}
	base := c.set(line) * c.assoc
	for w := 0; w < c.assoc; w++ {
		if c.tags[base+w] == line {
			c.clock++
			c.stamp[base+w] = c.clock
			return base + w
		}
	}
	return -1
}

// install places the line, evicting the LRU way if needed, and returns
// the slot. A dirty victim counts as a writeback.
func (c *Cache) install(line int64) int {
	victim := c.set(line)
	if c.assoc > 1 {
		base := victim * c.assoc
		victim = base
		for w := 0; w < c.assoc; w++ {
			if c.tags[base+w] == -1 {
				victim = base + w
				break
			}
			if c.stamp[base+w] < c.stamp[victim] {
				victim = base + w
			}
		}
		c.clock++
		c.stamp[victim] = c.clock
	}
	if c.tags[victim] != -1 && c.dirty[victim] {
		c.stats.Writebacks++
	}
	c.tags[victim] = line
	c.dirty[victim] = false
	return victim
}

// Load simulates a read of the byte at addr and reports whether it hit.
// A miss allocates the line.
func (c *Cache) Load(addr int64) bool {
	c.stats.Loads++
	line := addr >> c.lineShift
	if c.probe(line) >= 0 {
		return true
	}
	c.stats.LoadMisses++
	c.install(line)
	if c.cfg.NextLinePrefetch && c.probe(line+1) < 0 {
		c.stats.Prefetches++
		c.install(line + 1)
	}
	return false
}

// Store simulates a write of the byte at addr and reports whether it hit.
// Under write-around (the default), a store miss does not allocate the
// line; under write-allocate it does.
func (c *Cache) Store(addr int64) bool {
	c.stats.Stores++
	line := addr >> c.lineShift
	if slot := c.probe(line); slot >= 0 {
		if c.cfg.WriteAllocate {
			c.dirty[slot] = true // write-back: modified in place
		}
		return true
	}
	c.stats.StoreMisses++
	if c.cfg.WriteAllocate {
		slot := c.install(line)
		c.dirty[slot] = true
	}
	return false
}

// Contains reports whether the line holding addr is present, without
// updating statistics or LRU state.
func (c *Cache) Contains(addr int64) bool {
	line := addr >> c.lineShift
	if c.assoc == 1 {
		return c.tags[c.set(line)] == line
	}
	base := c.set(line) * c.assoc
	for w := 0; w < c.assoc; w++ {
		if c.tags[base+w] == line {
			return true
		}
	}
	return false
}

// Occupancy returns the number of valid lines currently held.
func (c *Cache) Occupancy() int {
	n := 0
	for _, t := range c.tags {
		if t != -1 {
			n++
		}
	}
	return n
}
