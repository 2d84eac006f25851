package slam

import (
	"fmt"

	"ags/internal/codec"
	"ags/internal/covis"
	"ags/internal/frame"
)

// mePrefetch is one in-flight CODEC motion-estimation job: ME of cur against
// prev, running on a background goroutine. The channel is buffered so an
// abandoned job's goroutine can finish and exit without a receiver.
type mePrefetch struct {
	prev, cur *frame.Image
	ch        chan prefetchOut
}

type prefetchOut struct {
	res *codec.Result
	err error
}

// maxPendingME bounds the in-flight job list. The Run pattern keeps at most
// two alive: the job for frame t+1 launched while frame t's job is still
// unconsumed at the top of ProcessFrame(t).
const maxPendingME = 2

// Prefetch launches motion estimation of next against cur on a background
// goroutine, modeling the CODEC encoding frame t+1 while the accelerator
// works on frame t. Call it with the frame about to be processed and its
// successor; ProcessFrame(next) then consumes the finished result instead of
// recomputing it. A prefetch that never matches a later frame is discarded,
// so speculative calls are safe. A frame ProcessFrame will reject launches
// nothing: the job would index a malformed plane on a goroutine of its own,
// where a panic takes the process, not one stream.
func (s *System) Prefetch(cur, next *frame.Frame) {
	if cur == nil || next == nil || cur.Validate() != nil || next.Validate() != nil {
		return
	}
	job := &mePrefetch{prev: cur.Color, cur: next.Color, ch: make(chan prefetchOut, 1)}
	cfg := s.detector.Cfg
	go func() {
		res, err := codec.MotionEstimate(job.prev, job.cur, cfg)
		job.ch <- prefetchOut{res: res, err: err}
	}()
	s.pending = append(s.pending, job)
	if len(s.pending) > maxPendingME {
		s.pending = s.pending[len(s.pending)-maxPendingME:]
	}
}

// compareME returns the covisibility of cur against prev, consuming a
// matching prefetched ME result when one is in flight and falling back to
// the synchronous detector otherwise. Matched and older jobs are retired;
// the result is identical to Detector.Compare either way.
func (s *System) compareME(prev, cur *frame.Image) (covis.Score, error) {
	for i, job := range s.pending {
		if job.prev != prev || job.cur != cur {
			continue
		}
		// Retire this job and everything launched before it.
		s.pending = append(s.pending[:0], s.pending[i+1:]...)
		out := <-job.ch
		if out.err != nil {
			return 0, fmt.Errorf("prefetched ME: %w", out.err)
		}
		s.detector.LastResult = out.res
		return s.detector.ScoreOf(out.res), nil
	}
	return s.detector.Compare(prev, cur)
}
