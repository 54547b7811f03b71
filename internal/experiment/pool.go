package experiment

import (
	"runtime"
	"sync"
)

// measureEach runs measure for every label on min(GOMAXPROCS, len(labels))
// goroutines and returns result i in slot i, so the output is the serial
// loop's whatever the worker count; GOMAXPROCS=1 is the serial run. Each
// measurement builds its own testbed and drives its single-threaded clock;
// the rows share only the read-only catalog and the obs series table.
func measureEach[R any](labels []string, measure func(i int, label string) R) []R {
	out := make([]R, len(labels))
	jobs := make(chan int, len(labels))
	for i := range labels {
		jobs <- i
	}
	close(jobs)
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(labels)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i] = measure(i, labels[i])
			}
		}()
	}
	wg.Wait()
	return out
}
