// Package area reproduces the AGS area model of Table 3: per-module areas of
// the FC detection engine, pose tracking engine and mapping engine for the
// Edge and Server variants, seeded from the paper's synthesis results (28 nm,
// 500 MHz; SRAM via CACTI scaled by DeepScaleTool; see README:
// substitutions).
package area

import "fmt"

// Module is one row of Table 3.
type Module struct {
	Engine    string
	Component string
	Remark    string
	AreaMM2   float64
}

// Config describes one AGS variant's resource counts.
type Config struct {
	Name           string
	FCAdders       int
	FCComparators  int
	SystolicArrays int // 32x32 each
	NNBufferKB     int
	LightGSArrays  int // 4x4 GPEs each
	LightBufferKB  int
	LogTableKB     int
	UpdateUnits    int
	SkipTableKB    int
	CompareUnits   int
	GSArrays       int
	GaussBufferKB  int
}

// Edge returns the AGS-Edge configuration (Table 3, left values).
func Edge() Config {
	return Config{
		Name: "AGS-Edge", FCAdders: 8, FCComparators: 2,
		SystolicArrays: 2, NNBufferKB: 32,
		LightGSArrays: 8, LightBufferKB: 32,
		LogTableKB: 4, UpdateUnits: 16,
		SkipTableKB: 4, CompareUnits: 16,
		GSArrays: 16, GaussBufferKB: 64,
	}
}

// Server returns the AGS-Server configuration (Table 3, right values).
func Server() Config {
	return Config{
		Name: "AGS-Server", FCAdders: 8, FCComparators: 2,
		SystolicArrays: 4, NNBufferKB: 64,
		LightGSArrays: 16, LightBufferKB: 64,
		LogTableKB: 8, UpdateUnits: 32,
		SkipTableKB: 8, CompareUnits: 32,
		GSArrays: 32, GaussBufferKB: 128,
	}
}

// Unit area constants (mm^2) at 28 nm, derived from the paper's Table 3 by
// dividing each module's area by its resource count.
const (
	adderMM2         = 0.00125 // 8 adders + 2 comparators = 0.01 each row
	comparatorMM2    = 0.005
	systolic32MM2    = 0.48    // one 32x32 array: 1.92/4
	gpeArrayMM2      = 0.2206  // one 4x4 GPE array: 7.06/32
	updateUnitMM2    = 0.0078  // 0.25/32
	compareUnitMM2   = 0.0003  // ~0.01/32
	tablePerKBMM2    = 0.005   // logging/skipping tables: 0.04/8KB
	bufferPerKBMM2   = 0.00725 // gauss buffers: 0.93/128KB
	nnBufferPerKBMM2 = 0.002   // NN buffer: 0.13/64KB
)

// Breakdown returns Table 3's rows for a configuration.
func Breakdown(c Config) []Module {
	return []Module{
		{"FC Detection Engine", "Adders", fmt.Sprintf("%d Units", c.FCAdders), float64(c.FCAdders) * adderMM2},
		{"FC Detection Engine", "Comparators", fmt.Sprintf("%d Units", c.FCComparators), float64(c.FCComparators) * comparatorMM2},
		{"Pose Tracking Engine", "Systolic Array", fmt.Sprintf("%dx(32x32)", c.SystolicArrays), float64(c.SystolicArrays) * systolic32MM2},
		{"Pose Tracking Engine", "NN Buffer", fmt.Sprintf("%dKB", c.NNBufferKB), float64(c.NNBufferKB) * nnBufferPerKBMM2},
		{"Pose Tracking Engine", "GS Array (Light)", fmt.Sprintf("%dx(4x4)", c.LightGSArrays), float64(c.LightGSArrays) * gpeArrayMM2},
		{"Pose Tracking Engine", "Gauss Buffer (Light)", fmt.Sprintf("%dKB", c.LightBufferKB), float64(c.LightBufferKB) * bufferPerKBMM2},
		{"Mapping Engine", "GS Logging Table", fmt.Sprintf("%dKB", c.LogTableKB), float64(c.LogTableKB) * tablePerKBMM2},
		{"Mapping Engine", "Update Unit", fmt.Sprintf("%d Units", c.UpdateUnits), float64(c.UpdateUnits) * updateUnitMM2},
		{"Mapping Engine", "GS Skipping Table", fmt.Sprintf("%dKB", c.SkipTableKB), float64(c.SkipTableKB) * tablePerKBMM2},
		{"Mapping Engine", "Comparison Unit", fmt.Sprintf("%d Units", c.CompareUnits), float64(c.CompareUnits) * compareUnitMM2},
		{"Mapping Engine", "GS Array", fmt.Sprintf("%dx(4x4)", c.GSArrays), float64(c.GSArrays) * gpeArrayMM2},
		{"Mapping Engine", "Gauss Buffer", fmt.Sprintf("%dKB", c.GaussBufferKB), float64(c.GaussBufferKB) * bufferPerKBMM2},
	}
}

// Total returns the summed area in mm^2.
func Total(c Config) float64 {
	var sum float64
	for _, m := range Breakdown(c) {
		sum += m.AreaMM2
	}
	return sum
}
