package dram

import (
	"testing"
)

func TestRowBufferHitFasterThanMiss(t *testing.T) {
	m := New(LPDDR4())
	first := m.Access(0, 8) // cold miss
	hit := m.Access(8, 8)   // same row
	if hit >= first {
		t.Errorf("row hit %v not faster than miss %v", hit, first)
	}
	if m.HitRate() != 0.5 {
		t.Errorf("hit rate = %v", m.HitRate())
	}
}

func TestSequentialVsRandomHitRate(t *testing.T) {
	seq := New(LPDDR4())
	for i := 0; i < 1024; i++ {
		seq.Access(uint64(i*8), 8)
	}
	rnd := New(LPDDR4())
	for i := 0; i < 1024; i++ {
		// Stride past the row size so every access opens a new row.
		rnd.Access(uint64(i*4096*7), 8)
	}
	if seq.HitRate() < 0.9 {
		t.Errorf("sequential hit rate = %v", seq.HitRate())
	}
	if rnd.HitRate() > 0.2 {
		t.Errorf("random hit rate = %v", rnd.HitRate())
	}
	if rnd.busyNs <= seq.busyNs {
		t.Error("random traffic not slower than sequential")
	}
}

func TestHBM2FasterThanLPDDR4(t *testing.T) {
	const n = 1 << 20
	if StreamNs(HBM2(), n) >= StreamNs(LPDDR4(), n) {
		t.Error("HBM2 stream not faster than LPDDR4")
	}
}

func TestStreamAccounting(t *testing.T) {
	ns := StreamNs(HBM2(), 900) // 900 bytes at 900 GB/s = 1 ns
	if ns < 0.99 || ns > 1.01 {
		t.Errorf("stream time = %v ns", ns)
	}
}

func TestBanksInterleave(t *testing.T) {
	// Two alternating rows in different banks both stay open.
	m := New(LPDDR4())
	rowA := uint64(0)
	rowB := uint64(m.Spec.RowBytes) // next row -> next bank
	m.Access(rowA, 8)
	m.Access(rowB, 8)
	a2 := m.Access(rowA, 8)
	b2 := m.Access(rowB, 8)
	if a2 > m.Spec.RowHitNs+1 || b2 > m.Spec.RowHitNs+1 {
		t.Error("bank interleaving broken: alternating rows should both hit")
	}
}
