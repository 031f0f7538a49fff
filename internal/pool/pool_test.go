package pool

import (
	"sync/atomic"
	"testing"
)

func TestBatchCoversRangeExactlyOnce(t *testing.T) {
	p := New(4)
	defer p.Close()
	const n = 1000
	var hits [n]int32
	p.Batch(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

func TestBatchZeroAndNegative(t *testing.T) {
	p := New(2)
	defer p.Close()
	called := false
	p.Batch(0, func(lo, hi int) { called = true })
	p.Batch(-5, func(lo, hi int) { called = true })
	if called {
		t.Fatal("empty batch invoked the worker function")
	}
}

func TestSingleWorkerRunsInline(t *testing.T) {
	p := New(1)
	defer p.Close()
	if p.Workers() != 1 {
		t.Fatalf("Workers() = %d", p.Workers())
	}
	ranges := 0
	p.Batch(10, func(lo, hi int) {
		ranges++
		if lo != 0 || hi != 10 {
			t.Fatalf("single worker got range [%d,%d)", lo, hi)
		}
	})
	if ranges != 1 {
		t.Fatalf("single worker split the batch into %d ranges", ranges)
	}
}

func TestWorkerCountClamped(t *testing.T) {
	p := New(0)
	defer p.Close()
	if p.Workers() != 1 {
		t.Fatalf("Workers() = %d, want clamped to 1", p.Workers())
	}
}

func TestRepeatedBatches(t *testing.T) {
	p := New(3)
	defer p.Close()
	var total int64
	for round := 0; round < 50; round++ {
		p.Batch(100, func(lo, hi int) {
			atomic.AddInt64(&total, int64(hi-lo))
		})
	}
	if total != 50*100 {
		t.Fatalf("total work %d, want %d", total, 50*100)
	}
}

func TestBatchSmallerThanWorkers(t *testing.T) {
	p := New(8)
	defer p.Close()
	var hits [3]int32
	p.Batch(3, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

func TestBatchGuidedCoversRangeExactlyOnce(t *testing.T) {
	for _, chunk := range []int{0, 1, 7, 64, 5000} {
		p := New(4)
		const n = 1000
		var hits [n]int32
		p.BatchGuided(n, chunk, func(lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				t.Errorf("chunk %d: bad range [%d,%d)", chunk, lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("chunk %d: index %d hit %d times", chunk, i, h)
			}
		}
		p.Close()
	}
}

func TestBatchGuidedSkewSelfBalances(t *testing.T) {
	// One pathological index does 10000x the work of the others. Guided
	// scheduling with single-index chunks must still cover everything
	// exactly once and let the light indices proceed around the heavy one.
	p := New(4)
	defer p.Close()
	const n = 256
	var total int64
	p.BatchGuided(n, 1, func(lo, hi int) {
		work := int64(1)
		if lo == 0 {
			work = 10000
		}
		for j := int64(0); j < work; j++ {
			atomic.AddInt64(&total, 1)
		}
	})
	if total != 10000+n-1 {
		t.Fatalf("total work %d, want %d", total, 10000+n-1)
	}
}

func TestBatchGuidedInlineWhenSmall(t *testing.T) {
	p := New(1)
	defer p.Close()
	calls := 0
	p.BatchGuided(10, 3, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Fatalf("inline path got range [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("single-worker guided batch made %d calls, want 1 inline", calls)
	}
}

func TestBatchGuidedZeroAndNegative(t *testing.T) {
	p := New(2)
	defer p.Close()
	called := false
	p.BatchGuided(0, 4, func(lo, hi int) { called = true })
	p.BatchGuided(-3, 0, func(lo, hi int) { called = true })
	if called {
		t.Fatal("empty guided batch invoked the worker function")
	}
}
