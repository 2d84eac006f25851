package mapper

import (
	"errors"
	"fmt"
	"math/bits"

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

// State is everything a Mapper carries between frames, exposed with exported
// fields so package slam can serialize it into a session snapshot. Slices are
// shared with the mapper on export and adopted on import — snapshot code
// encodes or decodes them immediately and never aliases them afterwards.
type State struct {
	Cloud     *gauss.Cloud
	SkipSet   []bool // one flag per cloud slot
	Keyframes []Keyframe
	RNG       uint64
	// The optimizer's step counter and moments: none before its first step,
	// eight per Gaussian after it (see perGaussian).
	Step int
	M, V []float64
}

// ExportState captures the mapper's inter-frame state for a snapshot. Moments
// of a map that has grown since the last step are left out, with the step
// counter, since the next step starts them afresh anyway (optim.Adam.Begin):
// an exported state holds no moments at step 0 and eight per Gaussian after
// it.
func (m *Mapper) ExportState() State {
	st := State{
		Cloud:     m.cloud,
		SkipSet:   m.skipSet,
		Keyframes: m.keyframes,
		RNG:       m.rng.state,
	}
	if mm, vv, step := m.opt.State(); len(mm) == perGaussian*m.cloud.Len() {
		st.Step, st.M, st.V = step, mm, vv
	}
	return st
}

// ErrSkipSet is what ImportState wraps when a state's skip set does not flag
// exactly its cloud's slots.
var ErrSkipSet = errors.New("mapper: skip set does not match the cloud")

// ImportState restores a snapshot: the inverse of ExportState, over a mapper
// freshly built with the same Config. The optimizer takes the snapshot's
// moments and step counter, so the first post-restore mapping iteration steps
// exactly as the uninterrupted run's would have. The state may come from
// outside the process, so a skip set of another length than the cloud, and
// optimizer state that ExportState does not produce (a negative step, moments
// at step 0, or other than eight per Gaussian after it), are refused here,
// not adopted.
func (m *Mapper) ImportState(st State) error {
	if err := st.Cloud.Validate(); err != nil {
		return err
	}
	if len(st.SkipSet) != st.Cloud.Len() {
		return fmt.Errorf("%w: %d flags for %d slots", ErrSkipSet, len(st.SkipSet), st.Cloud.Len())
	}
	want := perGaussian * st.Cloud.Len()
	if st.Step == 0 {
		want = 0
	}
	switch {
	case st.Step < 0:
		return fmt.Errorf("mapper: optimizer at step %d", st.Step)
	case len(st.M) != want || len(st.V) != want:
		return fmt.Errorf("mapper: optimizer at step %d holds %d first and %d second moments for %d Gaussians, want %d each",
			st.Step, len(st.M), len(st.V), st.Cloud.Len(), want)
	}
	m.opt.SetState(st.M, st.V, st.Step)
	m.cloud = st.Cloud
	m.skipSet = st.SkipSet
	m.keyframes = st.Keyframes
	m.rng = &prng{state: st.RNG}
	return nil
}
