package shard

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestForRangeCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 7, 16} {
		for _, n := range []int{0, 1, 2, 5, 16, 100, 4097} {
			hits := make([]int32, n)
			ForRange(workers, n, func(slot, lo, hi int) {
				if lo < 0 || hi > n || lo > hi || slot < 0 || slot >= workers {
					t.Errorf("workers=%d n=%d: bad shard %d [%d,%d)", workers, n, slot, lo, hi)
					return
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForRangeMoreWorkersThanItems(t *testing.T) {
	var calls int32
	ForRange(64, 3, func(slot, lo, hi int) {
		atomic.AddInt32(&calls, 1)
		if hi-lo != 1 || slot != lo {
			t.Errorf("shard %d [%d,%d) should be the single index %d", slot, lo, hi, slot)
		}
	})
	if calls != 3 {
		t.Fatalf("got %d shards, want 3", calls)
	}
}

func TestForRangeDeterministicBoundaries(t *testing.T) {
	collect := func() [][2]int {
		shards := make([][2]int, 4)
		ForRange(4, 10, func(slot, lo, hi int) { shards[slot] = [2]int{lo, hi} })
		return shards
	}
	a, b := collect(), collect()
	// The i*n/w rule for (4, 10): [0,2) [2,5) [5,7) [7,10), slot by slot.
	want := [][2]int{{0, 2}, {2, 5}, {5, 7}, {7, 10}}
	for s := range want {
		if a[s] != want[s] || b[s] != want[s] {
			t.Fatalf("slot %d: shards %v then %v, want %v", s, a[s], b[s], want[s])
		}
	}
	var runShards [4][2]int
	if err := Run(context.Background(), 4, 10, func(_ context.Context, slot, lo, hi int) error {
		runShards[slot] = [2]int{lo, hi}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for s := range want {
		if runShards[s] != want[s] {
			t.Fatalf("Run slot %d: shard %v, want %v (same split as ForRange)", s, runShards[s], want[s])
		}
	}
}

func TestForRangeSerialInline(t *testing.T) {
	var got [][2]int
	// workers=1 must run inline (appending without synchronization is the
	// proof: the race detector would flag a goroutine).
	ForRange(1, 50, func(slot, lo, hi int) { got = append(got, [2]int{lo, hi}) })
	if len(got) != 1 || got[0] != [2]int{0, 50} {
		t.Fatalf("serial ForRange shards = %v, want one [0,50)", got)
	}
	var ran int
	ctx := context.Background()
	err := Run(ctx, 1, 50, func(sctx context.Context, slot, lo, hi int) error {
		ran++
		if sctx != ctx || slot != 0 || lo != 0 || hi != 50 {
			t.Errorf("inline Run got slot %d [%d,%d), derived ctx %v", slot, lo, hi, sctx != ctx)
		}
		return nil
	})
	if err != nil || ran != 1 {
		t.Fatalf("inline Run: err %v, %d calls", err, ran)
	}
}

func TestInlinePathDoesNotAllocate(t *testing.T) {
	ctx := context.Background()
	plain := func(slot, lo, hi int) {}
	fn := func(ctx context.Context, slot, lo, hi int) error { return nil }
	if a := testing.AllocsPerRun(100, func() { ForRange(1, 100, plain) }); a != 0 {
		t.Errorf("inline ForRange allocates %.1f objects per call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { _ = Run(ctx, 1, 100, fn) }); a != 0 {
		t.Errorf("inline Run allocates %.1f objects per call, want 0", a)
	}
}

// TestRunPanicInNonZeroSlot: the panic comes back as a *PanicError with its
// value and stack, and only once every other shard has returned.
func TestRunPanicInNonZeroSlot(t *testing.T) {
	var finished atomic.Int32
	err := Run(context.Background(), 4, 4, func(ctx context.Context, slot, lo, hi int) error {
		if slot == 2 {
			panic("kernel blew up")
		}
		<-ctx.Done() // canceled by the panic
		time.Sleep(5 * time.Millisecond)
		finished.Add(1)
		return ctx.Err()
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err %v (%T), want *PanicError", err, err)
	}
	if pe.Value != "kernel blew up" {
		t.Errorf("panic value %v", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "TestRunPanicInNonZeroSlot") {
		t.Errorf("stack does not name the panicking function:\n%s", pe.Stack)
	}
	if got := finished.Load(); got != 3 {
		t.Fatalf("Run returned with %d of 3 other shards finished", got)
	}
}

func TestRunPanicInline(t *testing.T) {
	err := Run(context.Background(), 1, 10, func(context.Context, int, int, int) error {
		panic("inline")
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "inline" {
		t.Fatalf("inline panic: err %v, want *PanicError{inline}", err)
	}
}

func TestRunFirstErrorCancelsOthers(t *testing.T) {
	boom := errors.New("boom")
	err := Run(context.Background(), 4, 4, func(ctx context.Context, slot, lo, hi int) error {
		if slot == 0 {
			return boom
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Second):
			t.Errorf("slot %d: ctx not canceled by the first error", slot)
			return nil
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err %v, want the first error %v", err, boom)
	}
}

func TestRunParentContextErrorWins(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := Run(ctx, 3, 3, func(ctx context.Context, slot, lo, hi int) error {
		<-ctx.Done()
		return errors.New("shard saw cancellation")
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want the parent's %v", err, context.DeadlineExceeded)
	}
	if err := Run(ctx, 3, 0, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("empty range on a done ctx: err %v", err)
	}
}

func TestForRangeRepanicsOnCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				pe, ok := recover().(*PanicError)
				if !ok || pe.Value != "shard 3" || len(pe.Stack) == 0 {
					t.Errorf("workers=%d: recovered %v, want *PanicError{shard 3} with a stack", workers, pe)
				}
			}()
			ForRange(workers, 8, func(slot, lo, hi int) {
				if lo <= 3 && 3 < hi {
					panic("shard 3")
				}
			})
			t.Errorf("workers=%d: ForRange returned normally", workers)
		}()
	}
}

// TestNestedPanicKeepsOrigin: a *PanicError re-raised by an inner ForRange
// passes through an outer Run unchanged.
func TestNestedPanicKeepsOrigin(t *testing.T) {
	err := Run(context.Background(), 2, 2, func(ctx context.Context, slot, lo, hi int) error {
		ForRange(2, 2, func(slot, lo, hi int) {
			if slot == 1 {
				panic("inner")
			}
		})
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "inner" {
		t.Fatalf("err %v, want *PanicError{inner}", err)
	}
}
