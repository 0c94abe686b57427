package cache

import "fmt"

// Memory is the interface trace walkers drive: a sink for the load/store
// address stream of a kernel. Byte addresses.
type Memory interface {
	Load(addr int64)
	Store(addr int64)
}

// Hierarchy chains cache levels: an access that misses level i proceeds to
// level i+1 (inclusive caches). Loads allocate at every level they reach.
// Stores follow each level's write policy; under write-around a store that
// misses a level is forwarded to the next.
type Hierarchy struct {
	levels []*Cache
	// memo caches the batched-replay conflict partition (replay.go).
	memo replayMemo
}

// NewHierarchy builds a hierarchy from level configurations, L1 first,
// returning an error when any level's geometry is invalid. Use
// MustHierarchy for configurations known good by construction.
func NewHierarchy(cfgs ...Config) (*Hierarchy, error) {
	h := &Hierarchy{}
	for i, cfg := range cfgs {
		c, err := New(cfg)
		if err != nil {
			return nil, fmt.Errorf("level %d: %w", i+1, err)
		}
		h.levels = append(h.levels, c)
	}
	return h, nil
}

// MustHierarchy builds a hierarchy and panics on an invalid level
// geometry; for pre-validated configurations.
func MustHierarchy(cfgs ...Config) *Hierarchy {
	h, err := NewHierarchy(cfgs...)
	if err != nil {
		panic(err)
	}
	return h
}

// UltraSparc2 builds the paper's simulated memory system: 16KB
// direct-mapped L1 (32B lines) and 2MB direct-mapped L2 (64B lines), both
// write-around.
func UltraSparc2() *Hierarchy {
	return MustHierarchy(UltraSparc2L1(), UltraSparc2L2()) //lint:allow mustcheck -- fixed valid hardware configs
}

// Levels returns the cache levels, L1 first.
func (h *Hierarchy) Levels() []*Cache { return h.levels }

// Level returns level i (0 = L1).
func (h *Hierarchy) Level(i int) *Cache { return h.levels[i] }

// Load replays a read through the hierarchy.
func (h *Hierarchy) Load(addr int64) {
	for _, c := range h.levels {
		if c.Load(addr) {
			return
		}
	}
}

// Store replays a write through the hierarchy. With write-through caches
// (the paper's model) the write traffic reaches every level; a level that
// hits absorbs nothing, so propagation continues regardless, but a level
// that hits terminates the miss accounting just like a load.
func (h *Hierarchy) Store(addr int64) {
	for _, c := range h.levels {
		if c.Store(addr) {
			return
		}
	}
}

// Reset empties every level and zeroes all statistics.
func (h *Hierarchy) Reset() {
	for _, c := range h.levels {
		c.Reset()
	}
}

// ResetStats zeroes statistics on every level without emptying the caches.
func (h *Hierarchy) ResetStats() {
	for _, c := range h.levels {
		c.ResetStats()
	}
}

// NullMemory discards the address stream. It measures walker overhead in
// benchmarks and validates walkers in tests that only care about compute.
type NullMemory struct {
	LoadCount, StoreCount uint64
}

// Load counts and discards a read.
func (m *NullMemory) Load(int64) { m.LoadCount++ }

// Store counts and discards a write.
func (m *NullMemory) Store(int64) { m.StoreCount++ }

// Recorder captures the address stream for fine-grained test assertions.
type Recorder struct {
	// Ops holds one entry per access; Addr is the byte address.
	Ops []Op
}

// Op is one recorded access.
type Op struct {
	Addr    int64
	IsStore bool
}

// Load records a read.
func (r *Recorder) Load(addr int64) { r.Ops = append(r.Ops, Op{Addr: addr}) }

// Store records a write.
func (r *Recorder) Store(addr int64) { r.Ops = append(r.Ops, Op{Addr: addr, IsStore: true}) }

var (
	_ Memory = (*Hierarchy)(nil)
	_ Memory = (*NullMemory)(nil)
	_ Memory = (*Recorder)(nil)
)
