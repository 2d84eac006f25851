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

// TestSessionDroppedConcurrentAccess polls Dropped and drains Results while
// the session's mapping tails are streaming updates, then checks the final
// count is consistent with what the consumer actually received. Dropped is an
// atomic counter written by the tail goroutine and read from the producer side;
// under -race this test is the audit that the counter and the session
// lifecycle around it are race-free.
func TestSessionDroppedConcurrentAccess(t *testing.T) {
	seq := testSeq(t, "Desk", 6)
	srv := NewServer(ServerConfig{})
	sess, err := srv.Open("race-dropped", fastAGS(tw, th), seq.Intr)
	if err != nil {
		t.Fatal(err)
	}

	received := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range sess.Results() {
			received++
			sess.Dropped() // interleave reads with the tail's writes
		}
	}()

	for _, f := range seq.Frames {
		if err := sess.Push(f); err != nil {
			t.Fatal(err)
		}
		sess.Dropped() // producer-side read concurrent with the tail
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	<-done

	dropped := int(sess.Dropped())
	if received+dropped != len(seq.Frames) {
		t.Fatalf("received %d + dropped %d != %d frames", received, dropped, len(seq.Frames))
	}
}
