package main

import (
	"slices"
	"testing"
)

// TestSortSnapshotsByPRNumber pins the override order: later PRs win, so
// BENCH_PR10.json must come after BENCH_PR2.json even though it sorts
// before it lexically.
func TestSortSnapshotsByPRNumber(t *testing.T) {
	got := []string{"BENCH_PR10.json", "BENCH_PR12.json", "BENCH_PR2.json", "BENCH_PR6.json", "BENCH_PR7.json"}
	sortSnapshots(got)
	want := []string{"BENCH_PR2.json", "BENCH_PR6.json", "BENCH_PR7.json", "BENCH_PR10.json", "BENCH_PR12.json"}
	if !slices.Equal(got, want) {
		t.Fatalf("sortSnapshots = %v, want %v", got, want)
	}
}
