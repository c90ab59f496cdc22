package engine

import (
	"context"
	"testing"
	"time"
)

// busyCell burns deterministic CPU proportional to the spec's buffer,
// standing in for a simulation cell.
func busyCell(sp CellSpec, seed uint64, _ Scratch) any {
	x := seed
	for i := 0; i < 200_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

func benchTasks() []Task {
	var tasks []Task
	for _, buf := range []int{8, 16, 32, 64, 128, 256} {
		for _, sc := range []string{"noBG", "long-few", "long-many", "short-few", "short-many"} {
			sp := CellSpec{
				Testbed: "access", Scenario: sc, Direction: "up", Buffer: buf,
				Media: "bench", Seed: 42, Duration: 4 * time.Second, Reps: 1,
			}
			tasks = append(tasks, NewTask(sp, CellFunc(busyCell)))
		}
	}
	return tasks
}

// BenchmarkBatchSequential is the single-worker baseline for a
// 30-cell grid.
func BenchmarkBatchSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := New(1)
		e.RunBatch(context.Background(), benchTasks())
	}
}

// BenchmarkBatchParallel fans the same grid across GOMAXPROCS
// workers.
func BenchmarkBatchParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := New(0)
		e.RunBatch(context.Background(), benchTasks())
	}
}

// BenchmarkBatchWarmCache measures the memoized path: every cell a
// hit.
func BenchmarkBatchWarmCache(b *testing.B) {
	e := New(0)
	e.RunBatch(context.Background(), benchTasks())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunBatch(context.Background(), benchTasks())
	}
}
