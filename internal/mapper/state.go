package mapper

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"ags/internal/gauss"
)

// prng is the mapper's keyframe-sampling random source: splitmix64 with
// Lemire's multiply-shift range reduction. Its entire state is one uint64, so
// session snapshots serialize it exactly and a restored mapper draws the same
// keyframe sequence the uninterrupted run would have — something the stdlib
// sources cannot offer without reflection. Statistical quality far exceeds
// what sampling one keyframe index per third mapping iteration needs.
type prng struct{ state uint64 }

// newPRNG returns a generator seeded deterministically from seed.
func newPRNG(seed int64) *prng { return &prng{state: uint64(seed)} }

// next advances the splitmix64 state and returns the next 64-bit output.
func (p *prng) next() uint64 {
	p.state += 0x9E3779B97F4A7C15
	z := p.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n) for n >= 1.
func (p *prng) Intn(n int) int {
	hi, _ := bits.Mul64(p.next(), uint64(n))
	return int(hi)
}

// OptGroupState is one Adam group's serialized moment state. Name is one of
// "color", "logit", "mean" and "scale".
type OptGroupState struct {
	Name string
	Step int
	M, V []float64
}

// State is everything a Mapper carries between frames, exposed with exported
// fields so package slam can serialize it into a session snapshot. Slices are
// shared with the mapper on export and adopted on import — snapshot code
// encodes or decodes them immediately and never aliases them afterwards.
type State struct {
	Cloud     *gauss.Cloud
	SkipSet   []bool // one flag per cloud slot
	Keyframes []Keyframe
	RNG       uint64
	Opt       []OptGroupState // the groups that have stepped, sorted by name
}

// ExportState captures the mapper's inter-frame state for a snapshot.
func (m *Mapper) ExportState() State {
	st := State{
		Cloud:     m.cloud,
		SkipSet:   m.skipSet,
		Keyframes: m.keyframes,
		RNG:       m.rng.state,
	}
	for _, g := range m.optGroups() {
		if mm, vv, step := g.adam.State(); step > 0 {
			st.Opt = append(st.Opt, OptGroupState{Name: g.name, Step: step, M: mm, V: vv})
		}
	}
	return st
}

// ErrSkipSet is what ImportState wraps when a state's skip set does not flag
// exactly its cloud's slots.
var ErrSkipSet = errors.New("mapper: skip set does not match the cloud")

// ImportState restores a snapshot: the inverse of ExportState, over a mapper
// freshly built with the same Config. The optimizers keep their learning
// rates (package constants) and take the snapshot's moments and step counters
// (a group the snapshot does not name stays never-stepped), so the first
// post-restore mapping iteration steps exactly as the uninterrupted run's
// would have. The state may come from outside the process, so a skip set of
// another length than the cloud, and optimizer state that Adam.Step could not
// index safely, are refused here, not adopted.
func (m *Mapper) ImportState(st State) error {
	if err := st.Cloud.Validate(); err != nil {
		return err
	}
	if len(st.SkipSet) != st.Cloud.Len() {
		return fmt.Errorf("%w: %d flags for %d slots", ErrSkipSet, len(st.SkipSet), st.Cloud.Len())
	}
	groups := m.optGroups()
	var seen [len(groups)]bool
	for _, sg := range st.Opt {
		i := slices.IndexFunc(groups[:], func(g optGroup) bool { return g.name == sg.Name })
		switch {
		case i < 0:
			return fmt.Errorf("mapper: unknown optimizer group %q", sg.Name)
		case seen[i]:
			return fmt.Errorf("mapper: optimizer group %q repeated", sg.Name)
		case sg.Step < 0:
			return fmt.Errorf("mapper: optimizer group %q at step %d", sg.Name, sg.Step)
		case len(sg.M) != len(sg.V) || len(sg.M)%groups[i].stride != 0:
			return fmt.Errorf("mapper: optimizer group %q holds %d first and %d second moments, want equal multiples of %d",
				sg.Name, len(sg.M), len(sg.V), groups[i].stride)
		}
		seen[i] = true
		groups[i].adam.SetState(sg.M, sg.V, sg.Step)
	}
	m.cloud = st.Cloud
	m.skipSet = st.SkipSet
	m.keyframes = st.Keyframes
	m.rng = &prng{state: st.RNG}
	return nil
}
