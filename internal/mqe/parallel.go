package mqe

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fluxquery/internal/flightrec"
	"fluxquery/internal/xsax"
)

// This file implements the shared pass. Its batch source is an
// xsax.Pipeline whose form follows the pass width (GOMAXPROCS unless
// Dispatcher.Parallel overrides it): at width >= 2 the tokenize and
// validate stages run on their own goroutines and this dispatcher is the
// third stage, pulling validated batches off the event ring; at width 1
// the dispatcher fills each batch inline and no stage goroutine exists.
// Either way the dispatcher fans each batch out to the registered plans
// through a pool of min(width, plans) feed workers; a pool of one runs
// its worker on the dispatching goroutine.
//
// The workers shard the plan set: plans are ordered by descending cost
// estimate and dealt round-robin, so each worker owns a balanced stripe.
// Per batch, a worker claims the plans of its own stripe first (an
// atomic flag per plan keeps claims exclusive), then steals any plan a
// loaded sibling has not started yet, begins every claimed feed (the
// plan evaluators run concurrently on their own goroutines) and finally
// collects the acknowledgements. A counting barrier per batch keeps
// delivery in order for every plan — a plan never sees batch k+1 before
// it acknowledged batch k — and lets the batch arena recycle safely.

// Costed is implemented by consumers whose relative per-batch feeding
// cost can be estimated; the evaluator pool uses it to balance its
// worker stripes. Consumers without it weigh 1.
type Costed interface{ FeedCost() int }

// runPass is Run, additionally stamping the pass's scan, pipeline and
// delivery statistics on rec: the pass form and worker count, batches,
// events, steals, stage stalls, ring peaks, input bytes and the
// projection counters (all zero when Proj is nil), plus the trie's
// routing totals under trie dispatch.
func (d *Dispatcher) runPass(r io.Reader, consumers []Consumer, rec *flightrec.Record) error {
	if d.Trie != nil {
		return d.runTrie(r, consumers, rec)
	}
	return d.runPipelined(r, consumers, rec)
}

// openPass starts a pass's batch source and its pool of min(width, n)
// feed workers (at least one) for n consumers.
func (d *Dispatcher) openPass(r io.Reader, n int) (*xsax.Pipeline, *evalPool) {
	width := d.Parallel
	if width <= 0 {
		width = xsax.Width()
	}
	pl := xsax.NewPipeline(r, d.DTD, xsax.PipelineConfig{
		Width:       width,
		BatchEvents: d.BatchEvents,
		Proj:        d.Proj,
		ProjMode:    d.ProjMode,
		Throttle:    d.Gate.Wait,
		Ctx:         d.Ctx,
	})
	return pl, newEvalPool(max(1, min(width, n)))
}

// closePass joins a pass's worker pool and batch source and stamps
// their statistics on rec. Consumers must be closed first (releasing
// their budget accounts): a tokenizer stage may be parked in a gate wait
// that only drains when accounts release.
func closePass(pl *xsax.Pipeline, pool *evalPool, rec *flightrec.Record) {
	rec.Staged, rec.Parallel, rec.Steals = pl.Staged(), pool.n, pool.close()
	sc, pps, _ := pl.Close()
	rec.TokenizeStall, rec.ValidateStall, rec.DispatchStall = pps.TokStall, pps.ValStall, pps.DispStall
	rec.TokenRingPeak, rec.EventRingPeak = pps.TokRingPeak, pps.ValRingPeak
	rec.InputBytes = sc.BytesRead
	rec.EventsDelivered, rec.EventsSkipped = sc.EventsDelivered, sc.EventsSkipped
	rec.SubtreesSkipped, rec.BytesSkipped = sc.SubtreesSkipped, sc.BytesSkipped
}

func (d *Dispatcher) runPipelined(r io.Reader, consumers []Consumer, rec *flightrec.Record) error {
	live := make([]Consumer, len(consumers))
	copy(live, consumers)
	// Cost-ordered so the round-robin deal below balances the stripes.
	sort.SliceStable(live, func(i, j int) bool { return feedCost(live[i]) > feedCost(live[j]) })
	pl, pool := d.openPass(r, len(live))

	obs := d.Obs
	var scanTime, dispTime time.Duration
	var cause error
	var batches, events int64
	for cause == nil {
		if err := d.ctxErr(); err != nil {
			cause = err
			break
		}
		var t0 time.Time
		if obs != nil {
			t0 = time.Now()
		}
		vb, err := pl.Next()
		var t1 time.Time
		if obs != nil {
			t1 = time.Now()
			scanTime += t1.Sub(t0)
		}
		if err != nil {
			cause = err
			break
		}
		if len(live) > 0 {
			batches++
			events += int64(vb.Len())
			pool.feed(live, vb.Events)
			keep := live[:0]
			for i, c := range live {
				if pool.res[i].done {
					// A worker-side failure (panic isolation) reaches the
					// consumer here; an evaluator-side termination already
					// recorded its own error and ignores the cause.
					c.Close(pool.res[i].err)
					continue
				}
				keep = append(keep, c)
			}
			live = keep
			if obs != nil {
				dispTime += time.Since(t1)
			}
		}
		pl.Recycle(vb)
	}
	for _, c := range live {
		c.Close(cause)
	}
	closePass(pl, pool, rec)
	rec.Batches, rec.Events = batches, events
	if obs != nil {
		// In a staged pass the dispatcher's "scan" time is its wait on
		// the validated-batch ring — the stage goroutines overlap it, so
		// child spans describe concurrent work, not a partition of the
		// wall clock. Inline, "scan" is the batch fill itself and the
		// spans do partition it.
		obs.Scan.AddTime(scanTime)
		obs.Scan.AddStall(rec.DispatchStall)
		obs.Dispatch.AddTime(dispTime)
	}
	if cause == io.EOF {
		return nil
	}
	return cause
}

func feedCost(c Consumer) int {
	if cc, ok := c.(Costed); ok {
		return cc.FeedCost()
	}
	return 1
}

// feedResult is one consumer's acknowledgement of one batch.
type feedResult struct {
	done bool
	err  error
}

// evalPool is a fixed set of feed workers fanning batches to consumers.
// Worker-owned state (mine) and claimed slots are exclusive per batch;
// the ready/done channel pair is the per-batch barrier that publishes
// tasks/evs/res between the dispatcher and the workers. A pool of one
// has no goroutines: its worker runs on the dispatching goroutine.
type evalPool struct {
	n     int
	ready []chan struct{}
	donec chan struct{}
	wg    sync.WaitGroup

	tasks []Consumer
	evs   []xsax.Event
	// evsEach, when non-nil, gives every task its own event slice
	// (trie-routed passes feed per-plan batches); otherwise all tasks
	// share evs.
	evsEach [][]xsax.Event
	claims  []int32
	res     []feedResult
	// coll marks tasks whose acknowledgement was collected this batch;
	// panic recovery uses it to fail only the claimed-but-uncollected
	// tasks of the panicking worker.
	coll   []bool
	mine   [][]int
	steals atomic.Int64
}

func newEvalPool(n int) *evalPool {
	p := &evalPool{n: n, donec: make(chan struct{}, n), mine: make([][]int, n)}
	if n < 2 {
		return p
	}
	for w := 0; w < n; w++ {
		ch := make(chan struct{}, 1)
		p.ready = append(p.ready, ch)
		p.wg.Add(1)
		go p.worker(w, ch)
	}
	return p
}

func (p *evalPool) worker(id int, ready chan struct{}) {
	defer p.wg.Done()
	for range ready {
		p.safeFeed(id)
		p.donec <- struct{}{}
	}
}

// safeFeed runs one batch's fan-out with panic isolation: a panic
// escaping a consumer's feed hooks terminates only the tasks this
// worker had claimed — each is marked done with the panic as its
// per-plan error, delivered through Close by the driver — while
// sibling workers, their tasks and the shared pass itself continue.
// (Plan evaluator panics never reach here: the StepExec goroutine
// converts them to per-plan errors itself.) It reports whether the
// sweep ended in a panic.
func (p *evalPool) safeFeed(id int) (panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			err := fmt.Errorf("mqe: feed worker panic: %v", r)
			for _, i := range p.mine[id] {
				if !p.coll[i] {
					p.res[i] = feedResult{done: true, err: err}
				}
			}
		}
	}()
	p.feedWorker(id)
	return false
}

// feed fans one batch out to every task and waits for all workers to
// collect every acknowledgement; afterwards res holds one entry per
// task.
func (p *evalPool) feed(tasks []Consumer, evs []xsax.Event) {
	p.tasks, p.evs, p.evsEach = tasks, evs, nil
	p.run()
}

// feedEach is feed with a distinct event slice per task: evsEach[i]
// goes to tasks[i]. Trie-routed passes use it to flush several plans'
// pending batches through the worker pool at once.
func (p *evalPool) feedEach(tasks []Consumer, evsEach [][]xsax.Event) {
	p.tasks, p.evs, p.evsEach = tasks, nil, evsEach
	p.run()
}

func (p *evalPool) run() {
	tasks := p.tasks
	if cap(p.claims) < len(tasks) {
		p.claims = make([]int32, len(tasks))
		p.res = make([]feedResult, len(tasks))
		p.coll = make([]bool, len(tasks))
	}
	p.claims = p.claims[:len(tasks)]
	p.res = p.res[:len(tasks)]
	p.coll = p.coll[:len(tasks)]
	for i := range p.claims {
		p.claims[i] = 0
		p.res[i] = feedResult{}
		p.coll[i] = false
	}
	if len(p.ready) == 0 {
		// The one worker runs here. A panic ends its sweep early and no
		// sibling is left to steal the tasks it had not reached, so it
		// sweeps again; each sweep claims at least one more task.
		for p.safeFeed(0) {
		}
		return
	}
	for _, ch := range p.ready {
		ch <- struct{}{}
	}
	for range p.ready {
		<-p.donec
	}
}

func (p *evalPool) feedWorker(id int) {
	n := len(p.tasks)
	mine := p.mine[id][:0]
	evsFor := func(i int) []xsax.Event {
		if p.evsEach != nil {
			return p.evsEach[i]
		}
		return p.evs
	}
	// Own stripe first (tasks are cost-ordered and dealt round-robin)…
	// p.mine[id] is kept current claim-by-claim so panic recovery knows
	// exactly which tasks this worker owns.
	for i := id; i < n; i += p.n {
		if atomic.CompareAndSwapInt32(&p.claims[i], 0, 1) {
			mine = append(mine, i)
			p.mine[id] = mine
			p.tasks[i].BeginFeed(evsFor(i))
		}
	}
	// …then steal whatever a loaded sibling has not started yet.
	for i := 0; i < n; i++ {
		if atomic.CompareAndSwapInt32(&p.claims[i], 0, 1) {
			p.steals.Add(1)
			mine = append(mine, i)
			p.mine[id] = mine
			p.tasks[i].BeginFeed(evsFor(i))
		}
	}
	p.mine[id] = mine
	for _, i := range mine {
		done, err := p.tasks[i].EndFeed()
		p.res[i] = feedResult{done: done, err: err}
		p.coll[i] = true
	}
}

// close joins the workers and returns the pass's steal count.
func (p *evalPool) close() int64 {
	for _, ch := range p.ready {
		close(ch)
	}
	p.wg.Wait()
	return p.steals.Load()
}
