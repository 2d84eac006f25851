package main

import (
	"io"
	"net"
	"reflect"
	"testing"
	"time"
)

func TestMinAcross(t *testing.T) {
	reps := [][]float64{
		{10, 50, 30},
		{12, 40, 31},
		{11, 45, 29},
	}
	if got, want := minAcross(reps), []float64{10, 40, 29}; !reflect.DeepEqual(got, want) {
		t.Fatalf("minAcross = %v, want %v", got, want)
	}
	if reps[0][1] != 50 {
		t.Fatal("minAcross modified its input")
	}
	if minAcross(nil) != nil {
		t.Fatal("minAcross(nil) != nil")
	}
}

func TestThroughput(t *testing.T) {
	// A System stream: 4 frames whose minima sum to 400 ms run at 10 frames/s.
	minima := []float64{100, 50, 150, 100}
	if got := throughput(4, []float64{streamMs(minima, 1, 0)}); got != 10 {
		t.Fatalf("throughput = %v, want 10", got)
	}
	// Two fleet streams of 2 windows x 5 frames: 1000 ms + 100 ms of Close and
	// 1500 ms + 500 ms. The slower one takes 2 s for the pair's 20 frames.
	a := streamMs([]float64{80, 120}, 5, 100)
	b := streamMs([]float64{100, 200}, 5, 500)
	if a != 1100 || b != 2000 {
		t.Fatalf("streamMs = %v, %v, want 1100, 2000", a, b)
	}
	if got := throughput(20, []float64{a, b}); got != 10 {
		t.Fatalf("pair throughput = %v, want 10", got)
	}
}

func TestPercentileIndex(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{16, 0.9, 14}, {20, 0.9, 17}, {40, 0.9, 35}, {12, 0.9, 10},
		{16, 0.5, 7}, {20, 0.5, 9}, {40, 0.5, 19}, {12, 0.5, 5},
		{1, 0.9, 0}, {3, 0.5, 1},
	} {
		if got := percentileIndex(c.n, c.p); got != c.want {
			t.Errorf("percentileIndex(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	// desk_ags: 32 coarse-only, 6 refined, 2 key frames. p50 must fall in the
	// first class and p90 in the second, neither on a class boundary.
	var xs []float64
	for i := 0; i < 40; i++ {
		switch {
		case i < 32:
			xs = append(xs, 85)
		case i < 38:
			xs = append(xs, 130)
		default:
			xs = append(xs, 145)
		}
	}
	if percentile(xs, 0.5) != 85 || percentile(xs, 0.9) != 130 {
		t.Fatalf("p50 %v p90 %v", percentile(xs, 0.5), percentile(xs, 0.9))
	}
	unsorted := []float64{3, 1, 2}
	if percentile(unsorted, 0.5) != 2 || unsorted[0] != 3 {
		t.Fatal("percentile must sort a copy")
	}
}

func TestWindowMs(t *testing.T) {
	at := func(msecs ...int) []time.Duration {
		var out []time.Duration
		for _, m := range msecs {
			out = append(out, time.Duration(m)*time.Millisecond)
		}
		return out
	}
	// Checkpoint every 3 pushes: pushes 2 and 5 carry one. The seventh push
	// ends no window.
	got := windowMs(at(10, 20, 90, 100, 110, 240, 250), 3)
	if want := []float64{30, 50}; !reflect.DeepEqual(got, want) {
		t.Fatalf("windowMs = %v, want %v", got, want)
	}
	if got := windowMs(at(10, 20), 3); got != nil {
		t.Fatalf("windowMs of a stream shorter than a window = %v", got)
	}
}

func TestCountingListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	defer cl.Close()
	done := make(chan error, 1)
	go func() {
		c, err := cl.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 1000)
		if _, err := io.ReadFull(c, buf); err != nil {
			done <- err
			return
		}
		_, err = c.Write(buf[:300])
		done <- err
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, make([]byte, 300)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if in, out := cl.in.Load(), cl.out.Load(); in != 1000 || out != 300 {
		t.Fatalf("counted in %d out %d, want 1000 and 300", in, out)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 60},  // overlaps span 1: the union covers 10..60
		{ID: 3, Parent: 0, Start: 90, End: 120}, // runs past the parent: clipped at 100
		{ID: 4, Parent: 1, Start: 15, End: 20},  // a grandchild covers nothing of span 0
	}
	if got := selfTimeNs(spans, 0); got != 40 {
		t.Fatalf("self time of the root = %d, want 40", got)
	}
	if got := selfTimeNs(spans, 1); got != 25 {
		t.Fatalf("self time of span 1 = %d, want 25", got)
	}
	if got := selfTimeNs(spans, 4); got != 5 {
		t.Fatalf("self time of a leaf = %d, want 5", got)
	}
}

func TestTracer(t *testing.T) {
	var off *tracer
	off.end(off.begin("x", -1, 0, 0)) // a nil tracer records nothing and does not panic
	tr := newTracer()
	tr.workload = "w"
	a := tr.begin("a", -1, 0, -1)
	b := tr.begin("b", a, 0, 3)
	tr.end(b)
	tr.end(a)
	got := tr.spans[b]
	if got.Name != "b" || got.Parent != a || got.Frame != 3 || got.Workload != "w" || got.End < got.Start {
		t.Fatalf("span b = %+v", got)
	}
}
