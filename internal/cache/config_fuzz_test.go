package cache

import "testing"

// FuzzConfigGeometry pins the constructor contract on arbitrary
// geometries: Validate and New agree exactly, a validated cache never
// panics on accesses, and the derived geometry is consistent.
func FuzzConfigGeometry(f *testing.F) {
	f.Add(16<<10, 32, 1, false, false)
	f.Add(2<<20, 64, 1, true, false)
	f.Add(8192, 64, 2, true, true)
	f.Add(0, 0, 0, false, false)
	f.Add(100, 32, 1, false, false) // line does not divide capacity
	f.Add(1024, 48, 1, false, false)
	f.Add(1024, 32, 3, false, false)
	f.Add(1024, 32, -1, false, false)
	f.Fuzz(func(t *testing.T, size, line, assoc int, wa, pf bool) {
		// Bound the capacity so a valid input cannot allocate gigabytes
		// of tag state; the geometry rules are what is under test.
		if size < 0 || size > 1<<24 || line < 0 || line > 1<<16 || assoc < -8 || assoc > 1<<12 {
			t.Skip()
		}
		cfg := Config{SizeBytes: size, LineBytes: line, Assoc: assoc, WriteAllocate: wa, NextLinePrefetch: pf}
		c, err := New(cfg)
		if verr := cfg.Validate(); (verr == nil) != (err == nil) {
			t.Fatalf("Validate=%v but New=%v for %+v", verr, err, cfg)
		}
		if err != nil {
			return
		}
		if c.cfg != cfg {
			t.Errorf("config round trip: %+v != %+v", c.cfg, cfg)
		}
		a := assoc
		if a <= 0 {
			a = 1
		}
		if cfg.Lines() <= 0 || sets(cfg) <= 0 || cfg.Lines() != sets(cfg)*a {
			t.Errorf("inconsistent geometry for %+v: lines=%d sets=%d", cfg, cfg.Lines(), sets(cfg))
		}
		// A few accesses across the index space must not panic, and the
		// stats must account for every one of them.
		for _, addr := range []int64{0, int64(line), int64(size - 1), int64(size), 3 * int64(size)} {
			c.Load(addr)
			c.Store(addr)
		}
		s := c.Stats()
		if s.Loads != 5 || s.Stores != 5 {
			t.Errorf("stats %+v after 5 loads + 5 stores", s)
		}
	})
}
