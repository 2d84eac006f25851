package bench

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
)

// PlanSpecs returns the deduplicated union of the selected experiments'
// RunSpecs in first-appearance order. Dataset-only specs whose sequence is
// already implied by a pipeline spec are dropped (the run generates the
// dataset anyway), so the plan is exactly the set of distinct executions the
// warm phase performs.
func PlanSpecs(exps []Experiment) []RunSpec {
	var plan []RunSpec
	seen := make(map[string]bool)
	seqCovered := make(map[string]bool)
	for _, e := range exps {
		for _, spec := range e.Needs {
			if seen[spec.ID()] {
				continue
			}
			seen[spec.ID()] = true
			if !spec.DatasetOnly() {
				seqCovered[spec.Seq] = true
			}
			plan = append(plan, spec)
		}
	}
	out := plan[:0]
	for _, spec := range plan {
		if spec.DatasetOnly() && seqCovered[spec.Seq] {
			continue
		}
		out = append(out, spec)
	}
	return out
}

// RunBatch materializes every spec the selected experiments need across a
// bounded pool of jobs workers (jobs <= 0 means GOMAXPROCS), then renders
// each experiment to out in the given order. Spec execution is deduplicated
// by the suite's singleflight cache; rendering is strictly sequential, so
// out receives byte-identical text for every jobs value. On a failing spec
// the batch stops before rendering and returns the plan-order-first error.
func RunBatch(s *Suite, exps []Experiment, jobs int, out io.Writer) error {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	plan := PlanSpecs(exps)

	errs := make([]error, len(plan))
	sem := make(chan struct{}, jobs)
	var wg sync.WaitGroup
	var failed atomic.Bool
	for i, spec := range plan {
		sem <- struct{}{} // bounds concurrency; jobs=1 degenerates to serial plan order
		if failed.Load() {
			// A spec already failed: stop launching pipelines (each costs
			// seconds to minutes); in-flight ones drain below.
			<-sem
			break
		}
		wg.Add(1)
		go func(i int, spec RunSpec) {
			defer wg.Done()
			defer func() { <-sem }()
			if errs[i] = s.warm(spec); errs[i] != nil {
				failed.Store(true)
			}
		}(i, spec)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, e := range exps {
		if err := e.Render(s, out); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}
