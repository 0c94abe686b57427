// Package lib holds the export rule's fixture cases.
package lib

// TestOnly is read only by lib_test.go: the rule reports it.
func TestOnly() int { return 1 }

// Used is read by cmd/tool.
func Used() int { return 2 }

// Name is read by cmd/tool.
type Name string

// String satisfies fmt.Stringer; the interface is its reader.
func (n Name) String() string { return string(n) }

// Benched is read by a benchmark that the allowlist names.
func Benched() int { return 3 }

// Listed is read by a test only; its allowlist entry names no reader.
func Listed() int { return 4 }
