// Package gofix is the goroutineguard fixture. collectLeak reproduces
// the PR 9 checkpoint-failure leak byte-for-byte in miniature; the other
// functions walk the rule's escape hatches one at a time so each stays
// an escape on purpose, not by accident.
package gofix

import "sync"

func work() int            { return 1 }
func checkpoint(int) error { return nil }
func step() error          { return nil }
func poll()                {}
func prepare() int         { return 0 }

// collectLeak is the PR 9 pre-fix shape: workers bare-send on an
// unbuffered local channel, and the collector's early return on a
// checkpoint error abandons the range before it completes — every
// in-flight worker blocks on its send forever.
func collectLeak(jobs []int) error {
	results := make(chan int)
	var wg sync.WaitGroup
	for range jobs {
		wg.Add(1)
		go func() { // want `bare send on unbuffered local channel "results" is not received on every return path`
			defer wg.Done()
			results <- work()
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	for r := range results {
		if err := checkpoint(r); err != nil {
			return err
		}
	}
	return nil
}

// collectFixed is the PR 9 post-fix shape: the send is selected against
// a stop channel, so the worker exits when the collector gives up.
func collectFixed(jobs []int) error {
	results := make(chan int)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case results <- work():
			case <-stop:
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	for r := range results {
		if err := checkpoint(r); err != nil {
			close(stop)
			return err
		}
	}
	return nil
}

// collectBuffered bounds the block with capacity: every worker's single
// send completes even if nobody ever receives.
func collectBuffered(jobs []int) error {
	results := make(chan int, len(jobs))
	for range jobs {
		go func() {
			results <- work()
		}()
	}
	for range jobs {
		if err := checkpoint(<-results); err != nil {
			return err
		}
	}
	return nil
}

// collectDrained ranges the channel to completion on every path: errors
// are recorded but the loop keeps consuming, so no worker is abandoned.
func collectDrained(jobs []int) error {
	results := make(chan int)
	var wg sync.WaitGroup
	for range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- work()
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	var firstErr error
	for r := range results {
		if err := checkpoint(r); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// firstResult drains through a deferred receive, which runs on every
// return path by construction.
func firstResult() int {
	result := make(chan int)
	go func() {
		result <- work()
	}()
	defer func() { <-result }()
	return prepare()
}

// resultsChan hands the channel to the caller: receivers exist beyond
// this function's view, so the guard stays silent.
func resultsChan(jobs []int) <-chan int {
	results := make(chan int)
	go func() {
		for _, j := range jobs {
			results <- j
		}
		close(results)
	}()
	return results
}

// spawnTicker launches a loop nothing ever ends: no return, no break,
// no stop signal.
func spawnTicker() {
	go func() { // want `unbounded for-loop with no return, break, or terminal call`
		for {
			poll()
		}
	}()
}

// runNamed spawns a named same-package function; the taint travels
// through the parameter mapping: out inside produce is results here,
// and the early return on a step error abandons the drain loop.
func runNamed(n int) error {
	results := make(chan int)
	for i := 0; i < n; i++ {
		go produce(results, i) // want `bare send on unbuffered local channel "results" is not received on every return path`
	}
	for i := 0; i < n; i++ {
		if err := step(); err != nil {
			return err
		}
		<-results
	}
	return nil
}

func produce(out chan<- int, v int) {
	out <- v
}

// allowedProbe documents a deliberate process-lifetime goroutine; the
// justified suppression keeps the guard quiet.
func allowedProbe() {
	probe := make(chan int)
	//lint:allow goroutineguard -- fire-and-forget probe; receiver attaches at process level
	go func() {
		probe <- work()
	}()
}
