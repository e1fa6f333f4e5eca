package node

import (
	"testing"
	"time"
)

// TestUniformSpacingIsKOverRate: with one rate epoch, uniform spacing
// puts arrival k at exactly k/Rate — serve's historical schedule. An
// accumulated t += 1/Rate drifts off it (at 1000 req/s, from k = 1001).
func TestUniformSpacingIsKOverRate(t *testing.T) {
	g := Traffic{Rate: 1000, Requests: 20000}.Arrivals()
	for k := 1; k <= 20000; k++ {
		at, _, key, ok := g.Next()
		if want := time.Duration(float64(k) / 1000 * float64(time.Second)); !ok || at != want {
			t.Fatalf("arrival %d at %v (ok %v), want %v", k, at, ok, want)
		}
		if key != uint64(k) {
			t.Fatalf("arrival %d has reuse key %d without reuse", k, key)
		}
	}
	if _, _, _, ok := g.Next(); ok {
		t.Fatal("generator ran past its request budget")
	}
}
