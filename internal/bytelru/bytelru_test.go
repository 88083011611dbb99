package bytelru

import (
	"fmt"
	"testing"
)

// A failed build is not cached: the next caller for the key builds again.
func TestErrorsNotCached(t *testing.T) {
	c := New[int, sizedInt](1 << 20)
	calls := 0
	fail := func() (sizedInt, error) { calls++; return 0, fmt.Errorf("boom") }
	if _, err := c.GetOrBuild(1, fail); err == nil {
		t.Fatal("error swallowed")
	}
	if _, err := c.GetOrBuild(1, fail); err == nil {
		t.Fatal("error cached as success")
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want retry after error", calls)
	}
}

func TestUnboundedCacheNeverEvicts(t *testing.T) {
	c := New[int, sizedInt](0)
	for i := 0; i < 100; i++ {
		if _, err := c.GetOrBuild(i, func() (sizedInt, error) { return 1 << 20, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 100 || c.Stats().Evictions != 0 {
		t.Fatalf("len = %d, stats = %+v", c.Len(), c.Stats())
	}
}
