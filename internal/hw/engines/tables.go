// Package engines models the memory-side units of the AGS mapping engine:
// the GS logging table with its hot/cold buffer+cache split (Fig. 11) that
// batches contribution-info updates for frequently-appearing Gaussians, and
// the GS skipping table (Fig. 12) that streams the recorded contribution info
// once per non-key frame instead of refetching it per tile. Both are replayed
// against the real per-tile Gaussian-ID streams collected by the SLAM run.
package engines

import (
	"slices"

	"ags/internal/hw/dram"
	"ags/internal/hw/trace"
)

// TableParams sizes the on-chip structures.
type TableParams struct {
	// HotEntries is the GS logging/skipping buffer capacity (entries kept
	// on-chip across tiles).
	HotEntries int
	// EntryBytes is the DRAM footprint of one Gaussian's contribution record.
	EntryBytes int
	// HotWindowTiles is how many upcoming Gaussian tables the frequency
	// evaluation scans when classifying hot vs cold Gaussians.
	HotWindowTiles int
}

// DefaultTableParams returns the paper's table configuration: 4 KB (edge) or
// 8 KB (server) logging tables with 8-byte entries.
func DefaultTableParams(server bool) TableParams {
	entries := 4 * 1024 / 8
	if server {
		entries = 8 * 1024 / 8
	}
	return TableParams{HotEntries: entries, EntryBytes: 8, HotWindowTiles: 8}
}

// LoggingResult summarizes one frame's logging-table traffic.
type LoggingResult struct {
	NaiveAccesses int64 // read-modify-write per (tile, Gaussian) entry
	OptAccesses   int64 // with the hot/cold split
	NaiveNs       float64
	OptNs         float64
	HotHits       int64 // updates absorbed by the on-chip buffer
}

// SimulateLogging replays the per-tile Gaussian tables of one full-mapping
// iteration through the GS logging table model.
//
// Naive baseline: after each tile, every touched Gaussian's contribution
// record is read from DRAM, incremented, and written back (2 accesses).
//
// Optimized (Fig. 11b): a sliding window of upcoming tiles classifies
// Gaussians appearing in more than one table as hot; hot records live in the
// GS logging buffer and are written back once, while cold records take the
// read-modify-write path through the GS logging cache.
func SimulateLogging(tiles *trace.TileLists, p TableParams, spec dram.Spec) LoggingResult {
	var res LoggingResult
	naive := dram.New(spec)
	opt := dram.New(spec)

	// Classify hot Gaussians per window by cross-tile frequency.
	for start := 0; start < tiles.NumTiles(); start += p.HotWindowTiles {
		end := min(start+p.HotWindowTiles, tiles.NumTiles())
		freq := make(map[int32]int)
		for ti := start; ti < end; ti++ {
			lo, hi := tiles.Tile(ti)
			for k := lo; k < hi; k++ {
				freq[tiles.IDs.At(k)]++
			}
		}
		// When more Gaussians qualify than fit, keep the most frequent
		// (ties broken by id). The ordering is total, so the model — which
		// feeds the platform timing of every speedup table — is a pure
		// function of the trace rather than of map iteration order.
		cands := make([]int32, 0, len(freq))
		for id, f := range freq {
			if f >= 2 {
				cands = append(cands, id)
			}
		}
		slices.SortFunc(cands, func(a, b int32) int {
			if freq[a] != freq[b] {
				return freq[b] - freq[a] // frequency descending
			}
			return int(a - b) // id ascending
		})
		if len(cands) > p.HotEntries {
			cands = cands[:p.HotEntries]
		}
		hot := make(map[int32]bool, len(cands))
		for _, id := range cands {
			hot[id] = true
		}
		for ti := start; ti < end; ti++ {
			seen := make(map[int32]bool)
			lo, hi := tiles.Tile(ti)
			for k := lo; k < hi; k++ {
				id := tiles.IDs.At(k)
				if seen[id] {
					continue
				}
				seen[id] = true
				addr := uint64(id) * uint64(p.EntryBytes)
				// Naive: RMW to DRAM for every entry of every tile.
				res.NaiveNs += naive.Access(addr, p.EntryBytes)
				res.NaiveNs += naive.Access(addr, p.EntryBytes)
				res.NaiveAccesses += 2
				if hot[id] {
					res.HotHits++
					continue
				}
				// Cold path: RMW through the logging cache.
				res.OptNs += opt.Access(addr, p.EntryBytes)
				res.OptNs += opt.Access(addr, p.EntryBytes)
				res.OptAccesses += 2
			}
		}
		// Hot records are flushed once per window, in ascending id (address)
		// order: the DRAM model's row-buffer hits depend on access order, so
		// the flush sequence must be deterministic too.
		slices.Sort(cands)
		for _, id := range cands {
			addr := uint64(id) * uint64(p.EntryBytes)
			res.OptNs += opt.Access(addr, p.EntryBytes)
			res.OptAccesses++
		}
	}
	return res
}

// SkippingResult summarizes one non-key frame's skipping-table traffic.
type SkippingResult struct {
	NaiveNs     float64
	OptNs       float64
	NaiveBytes  int64
	StreamBytes int64
}

// SimulateSkipping models reading the contribution records for selective
// mapping. Naive: each tile's Gaussian table refetches its records from DRAM.
// Optimized: the skipping table streams the whole record array once per
// frame and serves tiles from the buffer/cache.
func SimulateSkipping(tiles *trace.TileLists, numGaussians int, p TableParams, spec dram.Spec) SkippingResult {
	var res SkippingResult
	naive := dram.New(spec)
	// The tiles in order, each front to back: the IDs as they are stored.
	for k := range tiles.IDs.Len() {
		addr := uint64(tiles.IDs.At(k)) * uint64(p.EntryBytes)
		res.NaiveNs += naive.Access(addr, p.EntryBytes)
		res.NaiveBytes += int64(p.EntryBytes)
	}
	res.StreamBytes = int64(numGaussians) * int64(p.EntryBytes)
	res.OptNs = dram.StreamNs(spec, res.StreamBytes)
	return res
}
