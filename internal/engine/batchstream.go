package engine

// This file is the parallel exchange: the classic Volcano exchange
// operator at batch granularity. A router goroutine pulls the input
// cursor (sequentially — pull is single-consumer by contract) and
// routes each row into its partition's staging batch, sending one
// columnar rel.Batch (up to rel.BatchCap rows) per channel operation to
// the partition's worker, which consumes its shard as a batch cursor
// while the router is still producing. A channel operation costs the
// same whether it carries 1 row or 1024, so batching divides the
// synchronization overhead by three orders of magnitude, while bounded
// channels give backpressure: at most workers × batchChanCap batches
// (plus one staging batch per partition) sit between producer and
// consumers.
//
// Deadlock freedom: StreamPartitionedBatches uses exactly one
// partition per worker, so every channel has a live consumer from the
// start — the router can always make progress once a channel drains,
// and workers always see their channel closed when the input is
// exhausted. (With more partitions than workers, a bounded channel for
// an unclaimed partition could fill while every worker waits for input
// the router cannot deliver.) The output-side helper, the ordered
// merge, has no such constraint: its channels are drained by an
// independent consumer, so producers may outnumber workers freely.

import (
	"sync"

	"radiv/internal/exec"
	"radiv/internal/rel"
)

// BatchCursor is the engine's pull-based batch iterator, structurally
// identical to rel.BatchCursor (and ra's): batch cursors from the
// storage and executor layers satisfy it without adaptation. The
// yielded batch is owned by the consumer; see the ownership contract
// in rel.
type BatchCursor = rel.BatchCursor

// ChanBatchCursor adapts a channel to a BatchCursor: NextBatch blocks
// until a batch arrives or the channel closes.
type ChanBatchCursor struct{ C <-chan *rel.Batch }

// NextBatch implements BatchCursor.
func (c ChanBatchCursor) NextBatch() (*rel.Batch, bool) {
	b, ok := <-c.C
	return b, ok
}

// batchChanCap is the bounded-channel capacity of the exchange, in
// batches: 4 × BatchCap rows of backpressure slack per partition.
const batchChanCap = 4

// StreamPartitionedBatches is the routed exchange: a router goroutine
// pulls in (sequentially — pull is single-consumer
// by contract), assigns every row a partition with route(batch, row)
// (called on the router goroutine, so it may intern into shared
// dictionaries safely, and must return a value in [0, parts) for the
// parts value returned), scatters rows into per-partition staging
// batches, and sends each staging batch as a whole once full. Rows
// reach work(q, shard) in input order per partition, as columnar
// batches. It returns the number of partitions used — one per worker —
// after every worker has finished. With one worker it degenerates to
// work(0, in) on the calling goroutine: no routing, no copies, no
// channels.
//
// Staging batches adopt the per-column dictionaries of the input rows
// they hold; a mid-stream dictionary change (legal, if unusual, for a
// BatchCursor) flushes the affected staging batches early, so workers
// always receive batches with internally consistent dictionaries.
//
// Snapshot contract: workers read routed batches concurrently with
// the router still pulling the input, so any dictionary those batches
// reference must be frozen for the duration of the exchange — an
// Interner is not safe for read-while-intern. Published snapshots
// satisfy this by construction: a rel.Snapshot's relations and
// dictionaries are sealed at Publish and never mutated again, so
// workers may read them freely — ID lookups, value decoding, probes —
// with no special casing (the old routed-exchange dictionary-read ban
// is gone). What remains forbidden, and what the quiescence analyzer
// still flags, is mutation: no worker may intern into any dictionary
// shared with another goroutine — interning goes through the epoch
// writer, before the exchange starts. A stream packed on the fly by
// rel.ToBatches interns into its per-stream dictionary as it packs;
// producers on that path must either re-encode rows into
// dictionary-free columns before the exchange (as
// division.DivideStream does) or have workers defer decoding until
// the exchange has returned.
//
// g governs the exchange; nil means ungoverned, with identical
// behavior. Three robustness properties hold in every mode:
//
//   - a work callback that returns before draining its shard does not
//     strand the router: the worker drains and releases the remainder
//     of its channel after work returns, so the exchange always runs
//     to completion and joins every goroutine;
//   - governed, the router's sends select on the governor's Done
//     channel and a panicking worker aborts the query instead of
//     killing the process, so an abort (cancellation, budget trip,
//     injected fault) stops routing promptly, closes every channel,
//     and returns after all goroutines have joined — the caller
//     checks g.Err();
//   - on any early exit — consumer abandoning its shard, query abort,
//     router failure — every staging batch and every batch still in
//     flight on a channel is released before the exchange returns, so
//     no abort path can leak a pooled batch.
func (e Executor) StreamPartitionedBatches(g *exec.Governor, in BatchCursor, route func(b *rel.Batch, row int) int, work func(q int, shard BatchCursor)) int {
	w := e.WorkerCount()
	if w <= 1 {
		work(0, in)
		return 1
	}
	chans := make([]chan *rel.Batch, w)
	for q := range chans {
		chans[q] = make(chan *rel.Batch, batchChanCap)
	}
	done := g.Done()
	var router sync.WaitGroup
	router.Add(1)
	go func() {
		defer router.Done()
		staging := make([]*rel.Batch, w)
		cur := (*rel.Batch)(nil) // input batch being scattered
		defer func() {
			if g != nil {
				g.AbortRecovered(recover())
			}
			cur.Release()
			for _, s := range staging {
				s.Release()
			}
			for _, ch := range chans {
				close(ch)
			}
		}()
		for b, ok := in.NextBatch(); ok; b, ok = in.NextBatch() {
			cur = b
			n := b.Len()
			for row := 0; row < n; row++ {
				q := route(b, row)
				s := staging[q]
				if s != nil && !s.DictsMatch(b) {
					staging[q] = nil
					if !SendOr(chans[q], s, done) {
						s.Release()
						return
					}
					s = nil
				}
				if s == nil {
					s = rel.NewBatch(b.Arity())
					s.AdoptDicts(b)
					staging[q] = s
				}
				s.AppendRowFrom(b, row)
				if s.Full() {
					staging[q] = nil
					if !SendOr(chans[q], s, done) {
						s.Release()
						return
					}
				}
			}
			cur = nil
			b.Release()
		}
		for q, s := range staging {
			if s != nil && s.Len() > 0 {
				staging[q] = nil
				if !SendOr(chans[q], s, done) {
					s.Release()
				}
			} else {
				staging[q] = nil
				s.Release()
			}
		}
	}()
	e.Run(g, w, func(q int) {
		defer func() {
			// Abort before draining, so the router stops the moment a
			// worker fails; then release whatever is still in flight.
			if g != nil {
				if r := recover(); r != nil {
					g.AbortRecovered(r)
				}
			}
			for b := range chans[q] {
				b.Release()
			}
		}()
		work(q, ChanBatchCursor{C: chans[q]})
	})
	router.Wait()
	// After an abort Run skips unclaimed partitions, so their
	// channels were never drained by a worker; the router has closed
	// every channel by now, so this sweep is finite and releases any
	// batch still in flight.
	for _, ch := range chans {
		for b := range ch {
			b.Release()
		}
	}
	return w
}

// StreamShardedBatches is the shard-aware path of the batch exchange:
// the input is already partitioned — one batch cursor per shard-local
// store, partition invariant established at storage time — so no
// router and no channels are needed; work(q, shards[q]) runs once per
// shard over the worker pool. It returns after every shard has been
// processed, reporting the shard count for symmetry with
// StreamPartitionedBatches. Governed (g non-nil), a panicking shard
// task aborts the query instead of killing the process and remaining
// shards are skipped; callers check g.Err().
func (e Executor) StreamShardedBatches(g *exec.Governor, shards []BatchCursor, work func(q int, shard BatchCursor)) int {
	e.Run(g, len(shards), func(q int) { work(q, shards[q]) })
	return len(shards)
}

// ChunkCap is the row count of one tuple chunk on the chunked merge
// path: the batch-granularity option for producers whose natural
// output is already row tuples (the set-join streams) rather than ID
// columns — one channel send per ChunkCap results instead of one per
// result.
const ChunkCap = 256

// OrderedMergeChunks returns a tuple cursor draining channels of tuple
// chunks in slice order, flattening each chunk in order: the emission
// sequence is the per-channel concatenation of the produced tuples, at
// 1/ChunkCap the channel operations of a per-tuple merge.
//
// stop makes the merge abandonable: the producers send with SendOr
// against stop.C() and close their channels when done, and Close
// fires the stop and drains every channel to its close, so after
// Close returns no producer is blocked on a merge channel. A nil stop
// never fires; the cursor must then be drained to exhaustion.
func OrderedMergeChunks(stop *Stop, chans []chan []rel.Tuple) *orderedChunkMergeCursor {
	return &orderedChunkMergeCursor{chans: chans, stop: stop}
}

type orderedChunkMergeCursor struct {
	chans []chan []rel.Tuple
	stop  *Stop
	cur   []rel.Tuple
	j     int
	i     int
}

// Close abandons the merge: it fires the stop so producers give up
// on blocked sends, then drains every channel to its close. Safe to
// call at any point; the cursor yields nothing afterwards.
func (c *orderedChunkMergeCursor) Close() {
	c.stop.Stop()
	c.cur, c.j = nil, 0
	for ; c.i < len(c.chans); c.i++ {
		for range c.chans[c.i] {
		}
	}
}

// Next implements Cursor.
func (c *orderedChunkMergeCursor) Next() (rel.Tuple, bool) {
	for {
		if c.j < len(c.cur) {
			t := c.cur[c.j]
			c.j++
			return t, true
		}
		c.cur, c.j = nil, 0
		for c.i < len(c.chans) {
			if ch, ok := <-c.chans[c.i]; ok {
				c.cur = ch
				break
			}
			c.i++
		}
		if c.cur == nil && c.i >= len(c.chans) {
			return nil, false
		}
	}
}
