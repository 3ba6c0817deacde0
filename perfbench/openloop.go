package main

import (
	"context"
	"sync"
	"time"
)

// sample is one open-loop request: when it was due, when a worker sent
// it and when its reply was complete, relative to the start of the
// loop.
type sample struct {
	due, sent, done time.Duration
	err             error
}

// latency is measured from the due time, so a stall that delays later
// requests is charged to them too.
func (s sample) latency() time.Duration { return s.done - s.due }

// lag is how late the generator got the request onto a connection.
func (s sample) lag() time.Duration { return s.sent - s.due }

// openLoop issues op(i) at due[i] (ascending, relative to the start) on
// at most workers concurrent callers, whatever the replies do: when
// every worker is busy the request waits, and its lag grows. It returns
// once every op has finished; a cancelled ctx stops issuing and marks
// the remaining requests with ctx's error.
func openLoop(ctx context.Context, due []time.Duration, workers int, op func(i int) error) []sample {
	samples := make([]sample, len(due))
	start := time.Now()
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				samples[i].sent = time.Since(start)
				samples[i].err = op(i)
				samples[i].done = time.Since(start)
			}
		}()
	}
	timer := time.NewTimer(0)
	<-timer.C
	for i, d := range due {
		samples[i].due = d
		if wait := d - time.Since(start); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				for j := i; j < len(due); j++ {
					samples[j] = sample{due: due[j], sent: due[j], done: due[j], err: ctx.Err()}
				}
				close(work)
				wg.Wait()
				return samples
			}
		}
		work <- i
	}
	close(work)
	wg.Wait()
	return samples
}
