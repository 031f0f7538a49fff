package greedy

import (
	"context"
	"errors"
	"testing"

	"repro/internal/testutil"
)

func TestSolveCancelled(t *testing.T) {
	testutil.LeakCheck(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Solve(ctx, testutil.MustBuild(testutil.Small(47)), DefaultConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
