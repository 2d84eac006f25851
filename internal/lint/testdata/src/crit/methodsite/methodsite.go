// Package methodsite is the corpus's method-valued allowlist case: an entry
// naming a method ((*Pool).dialAll, a joined dial fan-out) must be clean,
// while an unregistered launch on the same receiver still trips
// goroutine-site.
package methodsite

import "sync"

// Pool is a receiver with one allowlisted launch site and one that is not.
type Pool struct {
	addrs []string
}

// dialAll is on the test allowlist: one goroutine per address, joined before
// returning — the reviewed fan-out shape.
func (p *Pool) dialAll() []error {
	errs := make([]error, len(p.addrs))
	var wg sync.WaitGroup
	for i := range p.addrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = nil
		}(i)
	}
	wg.Wait()
	return errs
}

// retryLoose spawns from an unregistered method on the same receiver: being
// a Pool method is not enough, the allowlist is per launch site.
func (p *Pool) retryLoose(done chan struct{}) {
	go close(done) // want goroutine-site
}
