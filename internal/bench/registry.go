package bench

import (
	"fmt"
	"io"
	"slices"
)

// Experiment is one regenerable paper artifact, declared as a value: its
// identity, the RunSpecs it consumes, and a renderer over the warmed cache.
// Each exp_*.go file declares its experiments next to their render methods.
type Experiment struct {
	// ID is the stable short name used by ags-bench -exp.
	ID string
	// Paper names the table/figure the experiment reproduces.
	Paper string
	// Needs declares every (sequence, variant, key, override) bundle Render
	// will consume, so the batch scheduler can execute the union across
	// experiments before any rendering starts. Dataset-only specs declare
	// sequences an experiment reads without running the pipeline.
	Needs []RunSpec
	// Render writes the experiment's text artifact to w. All bundle access
	// goes through Suite.Run with the same specs Needs declared, so in batch
	// mode it only ever hits the warmed cache.
	Render func(s *Suite, w io.Writer) error
}

// specsFor is the cross product sequences x variants with empty keys — the
// shape of most experiments' needs.
func specsFor(seqs []string, variants ...Variant) []RunSpec {
	out := make([]RunSpec, 0, len(seqs)*len(variants))
	for _, v := range variants {
		for _, name := range seqs {
			out = append(out, Spec(name, v))
		}
	}
	return out
}

// seqSpecs declares dataset-only needs for experiments that read frames
// without running the pipeline.
func seqSpecs(seqs []string) []RunSpec {
	out := make([]RunSpec, 0, len(seqs))
	for _, name := range seqs {
		out = append(out, SeqSpec(name))
	}
	return out
}

// Experiments returns the registry of all reproducible tables and figures in
// the order the paper presents them.
func Experiments() []Experiment {
	return []Experiment{
		expTable1(),
		expFig3(),
		expFig4(),
		expFig5(),
		expFig6(),
		expTable2(),
		expFig14(),
		expFPRate(),
		expFig15a(),
		expFig15b(),
		expTable3(),
		expFig16(),
		expFig17(),
		expFig18(),
		expTable4(),
		expFig19(),
		expFig20(),
		expFig21(),
		expFig22(),
		expFig23(),
		expAblCodec(),
		expAblTables(),
		expAblOverlap(),
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0)
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	slices.Sort(ids)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (known: %v)", id, ids)
}
