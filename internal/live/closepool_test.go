package live

import (
	"sync"
	"testing"

	"dfsqos/internal/dfsc"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/history"
	"dfsqos/internal/ids"
	"dfsqos/internal/mm"
	"dfsqos/internal/qos"
	"dfsqos/internal/replication"
	"dfsqos/internal/rm"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/units"
)

// closeLog is an RM behind a directory that counts every Close by
// request.
type closeLog struct {
	*rm.RM
	mu     sync.Mutex
	closed map[ids.RequestID]int
}

func (l *closeLog) Close(req ids.RequestID) {
	l.mu.Lock()
	l.closed[req]++
	l.mu.Unlock()
	l.RM.Close(req)
}

// TestClosePoolUnderWallScheduler: a client's closes fire on the
// WallScheduler's timer goroutines while four goroutines admit more, so
// its close records leave and rejoin the free list concurrently (run it
// with -race). Every admitted reservation is closed exactly once, the RM
// ends holding none, and Completed counts every admission.
func TestClosePoolUnderWallScheduler(t *testing.T) {
	sched := NewWallScheduler(1000) // a 1-2 s file closes 1-2 ms later
	defer sched.Stop()
	cat := testCatalog(t, 21, 4, 1, 1.5, 2)
	mgr := mm.New()
	files := make(map[ids.FileID]rm.FileMeta, cat.Len())
	for f := 0; f < cat.Len(); f++ {
		meta := cat.File(ids.FileID(f))
		files[ids.FileID(f)] = rm.FileMeta{Bitrate: meta.Bitrate, Size: meta.Size, DurationSec: meta.DurationSec}
	}
	node, err := rm.New(rm.Options{
		Info:        ecnp.RMInfo{ID: 1, Capacity: units.Mbps(1000)},
		Scheduler:   sched,
		Mapper:      mgr,
		History:     history.DefaultConfig(),
		Replication: replication.DefaultConfig(replication.Static()),
		Rand:        rng.New(1),
		Files:       files,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Register(); err != nil {
		t.Fatal(err)
	}
	log := &closeLog{RM: node, closed: make(map[ids.RequestID]int)}
	dir := new(ecnp.StaticDirectory)
	dir.Set(1, log)
	node.SetDirectory(dir)
	c, err := dfsc.New(dfsc.Options{
		ID: 1, Mapper: mgr, Directory: dir, Scheduler: sched, Catalog: cat,
		Policy: selection.RemOnly, Scenario: qos.Soft, Rand: rng.New(2),
	})
	if err != nil {
		t.Fatal(err)
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		admitted []ids.RequestID
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if out := c.Access(ids.FileID(i % cat.Len())); out.OK {
					mu.Lock()
					admitted = append(admitted, out.Request)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if len(admitted) != 400 {
		t.Fatalf("%d of 400 accesses admitted", len(admitted))
	}
	waitFor(t, "every close", func() bool { return c.Stats().Completed == int64(len(admitted)) })
	log.mu.Lock()
	defer log.mu.Unlock()
	if len(log.closed) != len(admitted) {
		t.Errorf("%d distinct requests closed, want %d", len(log.closed), len(admitted))
	}
	for _, req := range admitted {
		if n := log.closed[req]; n != 1 {
			t.Errorf("request %v closed %d times, want once", req, n)
		}
	}
	if n := node.ActiveReservations(); n != 0 {
		t.Errorf("RM holds %d reservation(s) after every close", n)
	}
	if got := c.Stats().Completed; got != int64(len(admitted)) {
		t.Errorf("Completed %d, want %d", got, len(admitted))
	}
}
