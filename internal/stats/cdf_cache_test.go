package stats

import "testing"

// TestCDFCacheInvalidation guards the sorted-point cache: queries after
// new observations must reflect the updated distribution, and interleaved
// observe/query sequences must match a freshly built CDF.
func TestCDFCacheInvalidation(t *testing.T) {
	c := NewCDF()
	c.Observe(10)
	c.Observe(20)
	if got := c.At(15); got != 0.5 {
		t.Errorf("At(15) = %v, want 0.5", got)
	}
	// Invalidate after a query and re-query.
	c.Observe(30)
	c.Observe(30)
	if got := c.At(15); got != 0.25 {
		t.Errorf("At(15) after two more samples = %v, want 0.25", got)
	}
	if got := c.Quantile(0.75); got != 30 {
		t.Errorf("Quantile(0.75) = %v, want 30", got)
	}
	c.Observe(5)
	if got := c.Quantile(0.2); got != 5 {
		t.Errorf("Quantile(0.2) after Observe = %v, want 5", got)
	}
	if got := c.At(4); got != 0 {
		t.Errorf("At(4) = %v, want 0", got)
	}
	if got := c.At(1000); got != 1 {
		t.Errorf("At(1000) = %v, want 1", got)
	}
	if got := c.At(5); got != 0.2 {
		t.Errorf("At(5) = %v, want 0.2", got)
	}
}

func BenchmarkCDFQueryAfterObserve(b *testing.B) {
	c := NewCDF()
	for i := 0; i < 1024; i++ {
		c.Observe(float64(i % 256))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Steady-state query pattern: many queries per observation burst.
		if c.At(128) == 0 {
			b.Fatal("unexpected CDF")
		}
		c.Quantile(0.99)
	}
}
