package engines

import (
	"math/rand"
	"testing"

	"ags/internal/hw/dram"
	"ags/internal/hw/trace"
)

// syntheticTiles builds tile lists where hotIDs appear in every tile and the
// rest are unique per tile.
func syntheticTiles(nTiles, hotPerTile, coldPerTile int, seed int64) *trace.TileLists {
	rng := rand.New(rand.NewSource(seed))
	hot := make([]int32, hotPerTile)
	for i := range hot {
		hot[i] = int32(i)
	}
	next := int32(hotPerTile)
	ids, offsets := []int32(nil), []int32{0}
	for range nTiles {
		list := append([]int32(nil), hot...)
		for c := 0; c < coldPerTile; c++ {
			list = append(list, next)
			next++
		}
		rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
		ids = append(ids, list...)
		offsets = append(offsets, int32(len(ids)))
	}
	return &trace.TileLists{IDs: trace.Pack(ids), Offsets: trace.Pack(offsets)}
}

func TestLoggingHotColdSavesTraffic(t *testing.T) {
	tiles := syntheticTiles(16, 20, 10, 1)
	p := DefaultTableParams(false)
	res := SimulateLogging(tiles, p, dram.LPDDR4())
	if res.OptAccesses >= res.NaiveAccesses {
		t.Errorf("optimization saved nothing: %d vs %d", res.OptAccesses, res.NaiveAccesses)
	}
	if res.OptNs >= res.NaiveNs {
		t.Errorf("optimization not faster: %v vs %v", res.OptNs, res.NaiveNs)
	}
	if res.HotHits == 0 {
		t.Error("no hot hits despite repeated gaussians")
	}
	// Expected naive: 16 tiles * 30 unique entries * 2 accesses.
	if res.NaiveAccesses != 16*30*2 {
		t.Errorf("naive accesses = %d", res.NaiveAccesses)
	}
}

func TestLoggingAllColdNoSavings(t *testing.T) {
	// Every Gaussian appears in exactly one tile: nothing is hot.
	tiles := syntheticTiles(8, 0, 16, 2)
	p := DefaultTableParams(false)
	res := SimulateLogging(tiles, p, dram.LPDDR4())
	if res.HotHits != 0 {
		t.Errorf("hot hits on all-unique workload: %d", res.HotHits)
	}
	if res.OptAccesses != res.NaiveAccesses {
		t.Errorf("all-cold workload should match naive: %d vs %d", res.OptAccesses, res.NaiveAccesses)
	}
}

func TestLoggingBufferCapacityBounds(t *testing.T) {
	// More hot gaussians than buffer entries: savings bounded by capacity.
	tiles := syntheticTiles(4, 3000, 0, 3)
	p := TableParams{HotEntries: 64, EntryBytes: 8, HotWindowTiles: 4}
	res := SimulateLogging(tiles, p, dram.LPDDR4())
	// Only 64 of 3000 hot candidates fit; the rest go the cold path.
	if res.HotHits > 64*4 {
		t.Errorf("hot hits %d exceed buffer capacity bound", res.HotHits)
	}
	if res.OptAccesses >= res.NaiveAccesses {
		t.Error("no savings at all despite some buffered entries")
	}
}

// TestLoggingDeterministicUnderCapacityPressure: when more Gaussians qualify
// as hot than fit, the selection and flush order must be a pure function of
// the trace — map iteration order used to leak into OptAccesses/OptNs and
// made every speedup table differ between identical invocations.
func TestLoggingDeterministicUnderCapacityPressure(t *testing.T) {
	tiles := syntheticTiles(8, 500, 3, 5)
	p := TableParams{HotEntries: 64, EntryBytes: 8, HotWindowTiles: 4}
	ref := SimulateLogging(tiles, p, dram.LPDDR4())
	for i := 0; i < 10; i++ {
		got := SimulateLogging(tiles, p, dram.LPDDR4())
		if got != ref {
			t.Fatalf("run %d diverged: %+v vs %+v", i, got, ref)
		}
	}
}

func TestSkippingStreamBeatsPerTileFetch(t *testing.T) {
	tiles := syntheticTiles(16, 30, 5, 4)
	p := DefaultTableParams(false)
	res := SimulateSkipping(tiles, 4000, p, dram.LPDDR4())
	if res.OptNs >= res.NaiveNs {
		t.Errorf("streaming not faster: %v vs %v", res.OptNs, res.NaiveNs)
	}
	if res.StreamBytes != 4000*8 {
		t.Errorf("stream bytes = %d", res.StreamBytes)
	}
}

func TestDefaultTableParams(t *testing.T) {
	e := DefaultTableParams(false)
	s := DefaultTableParams(true)
	if s.HotEntries != 2*e.HotEntries {
		t.Errorf("server table not double: %d vs %d", s.HotEntries, e.HotEntries)
	}
}
