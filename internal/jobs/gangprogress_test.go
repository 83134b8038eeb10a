package jobs

import (
	"context"
	"sync"
	"testing"

	"aaws/internal/core"
)

// gangHook returns a gang progress hook journaling at the given stride, and
// the journal it writes to.
func gangHook(t *testing.T, stride uint64) (func(uint64), *Journal) {
	t.Helper()
	journal, _, err := OpenJournal(t.TempDir(), JournalConfig{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { journal.Close() })
	ex := NewExecutor(Config{Workers: 1, Journal: journal, ProgressEvents: stride})
	t.Cleanup(ex.Close)
	live := []*Job{{ID: "gang-0"}, {ID: "gang-1"}}
	return core.ProgressFromContext(ex.withGangProgress(context.Background(), live)), journal
}

// TestGangProgressStridePerCell: cells of a gang report one after another,
// each from a low count up; every cell journals once per stride, exactly as
// a single job does, however far the previous cell got.
func TestGangProgressStridePerCell(t *testing.T) {
	progress, journal := gangHook(t, 10000)
	// Cells of 40960, 20480 and 40960 events, reporting every 4096: each
	// journals when its count first reaches 10000 past its last record.
	for _, events := range []uint64{40960, 20480, 40960} {
		for n := uint64(4096); n <= events; n += 4096 {
			progress(n)
		}
	}
	// 12288, 24576, 36864 | 12288 | 12288, 24576, 36864.
	if got := journal.Metrics().Records; got != 7 {
		t.Errorf("journaled %d progress records, want 7", got)
	}
}

// TestGangProgressHookConcurrent calls one gang's progress hook from two
// goroutines at once, as a batch runner that simulates two cells side by
// side would, with a journal attached and a stride of one event so the hook
// journals on nearly every call. Under -race it fails if the hook's stride
// state is not synchronized; a count below the last journaled one never
// journals, so there is at most one record per call.
func TestGangProgressHookConcurrent(t *testing.T) {
	progress, journal := gangHook(t, 1)
	const calls = 1000
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for events := uint64(0); events < 2*calls; events += 2 {
				progress(events + uint64(w))
			}
		}()
	}
	wg.Wait()
	if got := journal.Metrics().Records; got == 0 || got > 2*calls {
		t.Errorf("hook journaled %d records over %d calls at a stride of one event", got, 2*calls)
	}
}
