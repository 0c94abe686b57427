package cache

// Test hooks for the external test package.

// SetCheckCoverage switches checkCoverage and clears the breach count.
func SetCheckCoverage(on bool) {
	checkCoverage.Store(on)
	coverageBreaches.Store(0)
}

// CoverageBreaches returns the cycles confirmed and pins matched in
// phases the coverage rule refused since SetCheckCoverage.
func CoverageBreaches() int64 { return coverageBreaches.Load() }
