package slam

import (
	"sync"
	"testing"
)

// TestDefaultServerConcurrentInit hammers the lazily-initialized package
// server from many goroutines at once: every caller must observe the same
// fully-constructed instance (the sync.Once contract), and under -race this
// doubles as the audit that the lazy init publishes safely.
func TestDefaultServerConcurrentInit(t *testing.T) {
	const callers = 32
	servers := make([]*Server, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			servers[i] = DefaultServer()
		}(i)
	}
	wg.Wait()
	for i, s := range servers {
		if s == nil {
			t.Fatalf("caller %d got nil server", i)
		}
		if s != servers[0] {
			t.Fatalf("caller %d got a different server instance", i)
		}
		if s.ContextPool() == nil {
			t.Fatalf("caller %d observed a partially constructed server (nil pool)", i)
		}
	}
}
