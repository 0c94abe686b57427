package cache

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestConfigGeometry(t *testing.T) {
	l1 := UltraSparc2L1()
	if l1.Lines() != 512 || l1.Sets() != 512 {
		t.Errorf("L1 lines/sets = %d/%d, want 512/512", l1.Lines(), l1.Sets())
	}
	if got := l1.Elems(8); got != 2048 {
		t.Errorf("L1 holds %d doubles, want 2048 (the paper's C_s)", got)
	}
	l2 := UltraSparc2L2()
	if got := l2.Elems(8); got != 262144 {
		t.Errorf("L2 holds %d doubles, want 262144", got)
	}
	if s := l1.String(); s != "16KB direct-mapped, 32B lines" {
		t.Errorf("L1 String = %q", s)
	}
	if s := (Config{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 4}).String(); s != "32KB 4-way, 64B lines" {
		t.Errorf("String = %q", s)
	}
}

func TestDirectMappedConflicts(t *testing.T) {
	c := MustNew(Config{SizeBytes: 1024, LineBytes: 32, Assoc: 1}) // 32 sets
	if c.Load(0) {
		t.Error("cold load hit")
	}
	if !c.Load(0) || !c.Load(31) {
		t.Error("same-line loads missed")
	}
	if c.Load(1024) {
		t.Error("conflicting line hit")
	}
	if c.Load(0) {
		t.Error("evicted line hit")
	}
	if c.Load(1056) { // line 33 -> set 1, never touched: cold miss
		t.Error("cold set hit")
	}
	if !c.Load(1056) {
		t.Error("just-installed line missed")
	}
}

func TestDirectMappedEviction(t *testing.T) {
	c := MustNew(Config{SizeBytes: 1024, LineBytes: 32, Assoc: 1})
	c.Load(64)   // set 2
	c.Load(1088) // set 2, evicts
	if c.Contains(64) {
		t.Error("64 should have been evicted")
	}
	if !c.Contains(1088) {
		t.Error("1088 should be resident")
	}
}

func TestSetAssociativeLRU(t *testing.T) {
	// 2 sets, 2-way: lines 0, 2, 4 (even lines) all map to set 0.
	c := MustNew(Config{SizeBytes: 128, LineBytes: 32, Assoc: 2})
	c.Load(0)      // set 0, way A
	c.Load(2 * 32) // set 0, way B
	c.Load(0)      // refresh 0's LRU stamp
	c.Load(4 * 32) // evicts line 2*32 (LRU), not 0
	if !c.Contains(0) {
		t.Error("LRU refresh ignored: line 0 evicted")
	}
	if c.Contains(2 * 32) {
		t.Error("line 64 should have been evicted as LRU")
	}
	if !c.Contains(4 * 32) {
		t.Error("line 128 should be resident")
	}
}

func TestFullyAssociative(t *testing.T) {
	cfg := Config{SizeBytes: 256, LineBytes: 32, Assoc: 8} // 8 lines, 1 set
	c := MustNew(cfg)
	for i := 0; i < 8; i++ {
		c.Load(int64(i * 32))
	}
	for i := 0; i < 8; i++ {
		if !c.Contains(int64(i * 32)) {
			t.Errorf("line %d missing from fully associative cache", i)
		}
	}
	c.Load(8 * 32) // evicts line 0 (LRU)
	if c.Contains(0) {
		t.Error("line 0 should be the LRU victim")
	}
}

func TestWriteAround(t *testing.T) {
	c := MustNew(Config{SizeBytes: 1024, LineBytes: 32, Assoc: 1})
	if c.Store(0) {
		t.Error("cold store hit")
	}
	if c.Contains(0) {
		t.Error("write-around store allocated a line")
	}
	c.Load(0)
	if !c.Store(0) {
		t.Error("store to resident line missed")
	}
	s := c.Stats()
	if s.Stores != 2 || s.StoreMisses != 1 || s.Loads != 1 || s.LoadMisses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestWriteAllocate(t *testing.T) {
	c := MustNew(Config{SizeBytes: 1024, LineBytes: 32, Assoc: 1, WriteAllocate: true})
	c.Store(0)
	if !c.Contains(0) {
		t.Error("write-allocate store did not allocate")
	}
	if !c.Load(0) {
		t.Error("load after allocating store missed")
	}
}

func TestWritebackAccounting(t *testing.T) {
	c := MustNew(Config{SizeBytes: 64, LineBytes: 32, Assoc: 1, WriteAllocate: true}) // 2 sets
	c.Store(0)                                                                        // set 0, allocated dirty
	if c.Stats().Writebacks != 0 {
		t.Error("allocation counted as writeback")
	}
	c.Load(64) // line 2 -> set 0: evicts the dirty line
	if got := c.Stats().Writebacks; got != 1 {
		t.Errorf("writebacks = %d, want 1", got)
	}
	c.Load(128) // set 0 again: victim is clean now
	if got := c.Stats().Writebacks; got != 1 {
		t.Errorf("clean eviction counted: writebacks = %d", got)
	}
	// Store hit dirties a resident line.
	c.Load(32) // set 1
	c.Store(40)
	c.Load(96) // set 1: evicts dirty line 1
	if got := c.Stats().Writebacks; got != 2 {
		t.Errorf("writebacks = %d, want 2", got)
	}
	if tb := c.Stats().TrafficBytes(32); tb != (c.Stats().Misses()+2)*32 {
		t.Errorf("TrafficBytes = %d", tb)
	}
}

func TestWriteAroundNeverWritesBack(t *testing.T) {
	c := MustNew(Config{SizeBytes: 64, LineBytes: 32, Assoc: 1})
	c.Load(0)
	c.Store(0)
	c.Load(64) // evicts
	if c.Stats().Writebacks != 0 {
		t.Error("write-around cache produced a writeback")
	}
}

func TestStatsAccounting(t *testing.T) {
	c := MustNew(Config{SizeBytes: 1024, LineBytes: 32, Assoc: 1})
	for i := 0; i < 100; i++ {
		c.Load(int64(i) * 8)
	}
	s := c.Stats()
	// 100 sequential doubles: 800 bytes = 25 lines, all cold misses,
	// and 25 lines fit the 32-set cache without wrap-around conflicts.
	if s.Loads != 100 || s.LoadMisses != 25 {
		t.Errorf("sequential loads: %+v", s)
	}
	if got, want := s.MissRate(), 25.0; got != want {
		t.Errorf("miss rate %g, want %g", got, want)
	}
	c.ResetStats()
	if c.Stats().Accesses() != 0 {
		t.Error("ResetStats left counters")
	}
	if !c.Load(0) {
		t.Error("ResetStats emptied the cache")
	}
}

// TestStatsAddEveryField sums two Stats with every field non-zero, so a
// counter Stats.Add forgets (as it once forgot Prefetches) fails here,
// including one added after this test was written.
func TestStatsAddEveryField(t *testing.T) {
	var a, b Stats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetUint(uint64(i + 1))
		vb.Field(i).SetUint(uint64(100 * (i + 1)))
	}
	a.Add(b)
	for i := 0; i < va.NumField(); i++ {
		if got, want := va.Field(i).Uint(), uint64(101*(i+1)); got != want {
			t.Errorf("Stats.Add: %s = %d, want %d", va.Type().Field(i).Name, got, want)
		}
	}
}

// TestAssociativityReferenceModel cross-checks the cache against a simple
// map+timestamp reference implementation on random traces.
func TestAssociativityReferenceModel(t *testing.T) {
	type refCache struct {
		assoc, sets, line int
		sets_             []map[int64]int
		clock             int
	}
	for _, assoc := range []int{1, 2, 4} {
		cfg := Config{SizeBytes: 2048, LineBytes: 32, Assoc: assoc}
		c := MustNew(cfg)
		ref := refCache{assoc: assoc, sets: cfg.Sets(), line: 32}
		ref.sets_ = make([]map[int64]int, ref.sets)
		for i := range ref.sets_ {
			ref.sets_[i] = map[int64]int{}
		}
		rng := rand.New(rand.NewSource(int64(assoc)))
		for n := 0; n < 20000; n++ {
			addr := int64(rng.Intn(16384))
			line := addr / 32
			set := ref.sets_[int(line)%ref.sets]
			ref.clock++
			_, refHit := set[line]
			if refHit {
				set[line] = ref.clock
			} else {
				if len(set) >= ref.assoc {
					var victim int64
					best := 1 << 62
					for l, ts := range set {
						if ts < best {
							best, victim = ts, l
						}
					}
					delete(set, victim)
				}
				set[line] = ref.clock
			}
			if got := c.Load(addr); got != refHit {
				t.Fatalf("assoc=%d access %d addr %d: hit=%v, reference says %v", assoc, n, addr, got, refHit)
			}
		}
	}
}

func TestHierarchyInclusionTraffic(t *testing.T) {
	h := MustHierarchy(
		Config{SizeBytes: 512, LineBytes: 32, Assoc: 1},
		Config{SizeBytes: 4096, LineBytes: 32, Assoc: 1},
	)
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 5000; n++ {
		if rng.Intn(4) == 0 {
			h.Store(int64(rng.Intn(8192)))
		} else {
			h.Load(int64(rng.Intn(8192)))
		}
	}
	l1, l2 := h.Level(0).Stats(), h.Level(1).Stats()
	if l2.Accesses() != l1.Misses() {
		t.Errorf("L2 accesses %d != L1 misses %d", l2.Accesses(), l1.Misses())
	}
	if l2.Misses() > l2.Accesses() {
		t.Error("more misses than accesses")
	}
}

func TestCapacityOnlyWorkingSetFits(t *testing.T) {
	// A working set that fits exactly sees only cold misses on repeat
	// sweeps — for a direct-mapped cache and contiguous addresses there
	// are no conflicts.
	c := MustNew(Config{SizeBytes: 4096, LineBytes: 32, Assoc: 1})
	sweep := func() {
		for a := int64(0); a < 4096; a += 8 {
			c.Load(a)
		}
	}
	sweep()
	first := c.Stats().LoadMisses
	sweep()
	if c.Stats().LoadMisses != first {
		t.Errorf("repeat sweep of resident working set missed: %d -> %d", first, c.Stats().LoadMisses)
	}
}

func TestNonPow2Sets(t *testing.T) {
	// 3-line cache: modulo indexing must be used and stay correct.
	c := MustNew(Config{SizeBytes: 96, LineBytes: 32, Assoc: 1})
	c.Load(0)  // set 0
	c.Load(32) // set 1
	c.Load(64) // set 2
	if !c.Contains(0) || !c.Contains(32) || !c.Contains(64) {
		t.Error("3-set cache lost a line")
	}
	c.Load(96) // line 3 -> set 0, evicts line 0
	if c.Contains(0) {
		t.Error("line 0 should be evicted in 3-set cache")
	}
}

func TestOccupancyQuick(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := MustNew(Config{SizeBytes: 1024, LineBytes: 32, Assoc: 2})
		for _, a := range addrs {
			c.Load(int64(a))
		}
		occ := c.Occupancy()
		return occ >= 0 && occ <= 32
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNextLinePrefetch(t *testing.T) {
	c := MustNew(Config{SizeBytes: 1024, LineBytes: 32, Assoc: 1, NextLinePrefetch: true})
	if c.Load(0) {
		t.Error("cold load hit")
	}
	if !c.Contains(32) {
		t.Error("next line not prefetched")
	}
	if !c.Load(32) {
		t.Error("prefetched line missed")
	}
	s := c.Stats()
	if s.Prefetches != 1 || s.LoadMisses != 1 || s.Loads != 2 {
		t.Errorf("stats %+v", s)
	}
	// Sequential sweep: prefetching halves the misses.
	c.Reset()
	for a := int64(0); a < 1024; a += 8 {
		c.Load(a)
	}
	if m := c.Stats().LoadMisses; m != 16 {
		t.Errorf("sequential misses with prefetch = %d, want 16 (every other line)", m)
	}
	// A conflict pattern gets no help: alternating lines one cache apart.
	c.Reset()
	for i := 0; i < 100; i++ {
		c.Load(0)
		c.Load(1024)
	}
	if m := c.Stats().LoadMisses; m < 199 {
		t.Errorf("conflict misses with prefetch = %d; prefetching must not hide conflicts", m)
	}
}

func TestInvalidConfigs(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 0, LineBytes: 32},
		{SizeBytes: 100, LineBytes: 32},            // line does not divide size
		{SizeBytes: 1024, LineBytes: 33},           // line not a power of two
		{SizeBytes: 1024, LineBytes: 32, Assoc: 5}, // assoc does not divide lines
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MustNew(%+v) did not panic", cfg)
				}
			}()
			MustNew(cfg)
		}()
	}
}
