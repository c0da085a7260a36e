package cache

import "testing"

// TestTryNewRejectsInvalidGeometry: every ingress-shaped bad geometry
// is an error from TryNew — and a panic from New, which stays reserved
// for compiled-in machine descriptions.
func TestTryNewRejectsInvalidGeometry(t *testing.T) {
	good := Config{Name: "L1", SizeBytes: 32 << 10, LineBytes: 32, Ways: 2}
	bad := []Config{
		{},
		{Name: "neg", SizeBytes: -1, LineBytes: 32, Ways: 2},
		{Name: "line-not-pow2", SizeBytes: 32 << 10, LineBytes: 48, Ways: 2},
		{Name: "size-not-multiple", SizeBytes: 1000, LineBytes: 32, Ways: 2},
		{Name: "ways-not-divisor", SizeBytes: 32 << 10, LineBytes: 32, Ways: 3},
		{Name: "sets-not-pow2", SizeBytes: 96 << 10, LineBytes: 32, Ways: 2},
		// Structurally fine but absurdly large: must be rejected by the
		// size bound BEFORE TryNew's array allocation, or a network
		// request naming it would OOM the process at validation time.
		{Name: "huge", SizeBytes: 1 << 45, LineBytes: 128, Ways: 2},
	}
	for _, cfg := range bad {
		if _, err := TryNew(cfg); err == nil {
			t.Errorf("TryNew(%+v) accepted invalid geometry", cfg)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
	c, err := TryNew(good)
	if err != nil || c == nil {
		t.Fatalf("TryNew(good) = %v, %v", c, err)
	}
}
