// Package dram is a simplified banked row-buffer DRAM timing model standing
// in for Ramulator (see README: substitutions). It captures the two
// first-order effects AGS's evaluation depends on: sustained bandwidth
// differences between edge (LPDDR4-3200) and server (HBM2) memory, and the
// row-buffer hit/miss cost of the scattered accesses made by the GS
// logging/skipping tables.
package dram

// Spec describes one memory technology.
type Spec struct {
	Name string
	// BandwidthGBs is the peak sequential bandwidth in GB/s.
	BandwidthGBs float64
	// RowHitNs / RowMissNs are access latencies for row-buffer hits and
	// misses (activate+precharge included).
	RowHitNs  float64
	RowMissNs float64
	// Banks is the number of independent banks.
	Banks int
	// RowBytes is the row-buffer size per bank.
	RowBytes int
}

// LPDDR4 returns the AGS-Edge memory spec (LPDDR4-3200, §6.1).
func LPDDR4() Spec {
	return Spec{
		Name:         "LPDDR4-3200",
		BandwidthGBs: 25.6,
		RowHitNs:     18,
		RowMissNs:    45,
		Banks:        8,
		RowBytes:     2048,
	}
}

// HBM2 returns the AGS-Server memory spec (§6.1).
func HBM2() Spec {
	return Spec{
		Name:         "HBM2",
		BandwidthGBs: 900,
		RowHitNs:     14,
		RowMissNs:    34,
		Banks:        64,
		RowBytes:     1024,
	}
}

// Model tracks per-bank open rows and accumulates access time.
type Model struct {
	Spec     Spec
	openRow  []int64
	accesses int64
	hits     int64
	busyNs   float64
}

// New returns a model with all rows closed.
func New(spec Spec) *Model {
	rows := make([]int64, spec.Banks)
	for i := range rows {
		rows[i] = -1
	}
	return &Model{Spec: spec, openRow: rows}
}

// Access simulates one random access of n bytes at the byte address addr and
// returns its latency in nanoseconds.
func (m *Model) Access(addr uint64, n int) float64 {
	row := int64(addr) / int64(m.Spec.RowBytes)
	bank := int(row) % m.Spec.Banks
	m.accesses++
	var lat float64
	if m.openRow[bank] == row {
		m.hits++
		lat = m.Spec.RowHitNs
	} else {
		m.openRow[bank] = row
		lat = m.Spec.RowMissNs
	}
	// Transfer time on top of the access latency.
	lat += float64(n) / (m.Spec.BandwidthGBs)
	// Banks overlap: charge only 1/Banks of the latency to the shared
	// channel once the pipeline is warm. A fixed derating keeps the model
	// simple and monotone.
	eff := lat / float64(min(m.Spec.Banks, 4))
	m.busyNs += eff
	return lat
}

// StreamNs returns the time to transfer n sequential bytes at peak bandwidth
// (large contiguous reads: Gaussian feature fetches, frame buffers).
func StreamNs(spec Spec, n int64) float64 {
	return float64(n) / spec.BandwidthGBs
}

// HitRate returns the row-buffer hit rate, or 0 with no accesses.
func (m *Model) HitRate() float64 {
	if m.accesses == 0 {
		return 0
	}
	return float64(m.hits) / float64(m.accesses)
}
