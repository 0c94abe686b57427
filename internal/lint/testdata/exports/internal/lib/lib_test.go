package lib

import "testing"

func TestOnlyAndListed(t *testing.T) {
	if TestOnly()+Listed() != 5 {
		t.Fail()
	}
}

func BenchmarkBenched(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Benched()
	}
}
