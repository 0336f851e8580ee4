package setjoin

import (
	"sync/atomic"

	"radiv/internal/engine"
	"radiv/internal/exec"
	"radiv/internal/rel"
)

// chunkRanges splits n items into at most parts contiguous [lo, hi)
// ranges of near-equal size. Contiguity keeps the merged output in
// exactly the order the sequential algorithm would emit it.
func chunkRanges(n, parts int) [][2]int {
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	out := make([][2]int, 0, parts)
	for c := 0; c < parts; c++ {
		lo := c * n / parts
		hi := (c + 1) * n / parts
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// mergeStats sums per-chunk counters into one Stats.
func mergeStats(per []Stats) Stats {
	var st Stats
	for _, p := range per {
		st.PairsConsidered += p.PairsConsidered
		st.Verifications += p.Verifications
		st.Comparisons += p.Comparisons
		st.Probes += p.Probes
	}
	return st
}

// pair is one (R-key, S-key) join result awaiting the ordered merge.
type pair struct{ a, c rel.Value }

// ParallelSignatureContainment shards the R side of the signature
// nested-loop containment join into contiguous chunks processed by the
// engine worker pool. Group lists and signatures are shared read-only;
// per-chunk outputs concatenate in chunk order, so the emitted pair
// sequence — and therefore the result relation, byte for byte — is
// identical to the sequential SignatureContainment run.
type ParallelSignatureContainment struct {
	// Workers is the goroutine pool size; values <= 0 mean one worker
	// per CPU.
	Workers int
}

// Name implements Algorithm.
func (ParallelSignatureContainment) Name() string { return "parallel-signature" }

// Predicate implements Algorithm.
func (ParallelSignatureContainment) Predicate() Predicate { return Containment }

// Join implements Algorithm.
func (p ParallelSignatureContainment) Join(r, s []*Group) (*rel.Relation, Stats) {
	ex := engine.Executor{Workers: p.Workers}
	if ex.WorkerCount() <= 1 {
		// One worker cannot beat the sequential join; skip the
		// chunking overhead entirely.
		return SignatureContainment{}.Join(r, s)
	}
	chunks := chunkRanges(len(r), ex.PartitionCount())
	pairs := make([][]pair, len(chunks))
	per := make([]Stats, len(chunks))
	ex.Run(nil, len(chunks), func(c int) {
		st := &per[c]
		for _, gr := range r[chunks[c][0]:chunks[c][1]] {
			for _, gs := range s {
				st.PairsConsidered++
				if gs.sig&^gr.sig != 0 {
					continue // a bit of D is missing from B: cannot contain
				}
				st.Verifications++
				if gr.ContainsAll(gs, &st.Comparisons) {
					pairs[c] = append(pairs[c], pair{gr.Key, gs.Key})
				}
			}
		}
	})
	out := rel.NewRelation(2)
	for _, ps := range pairs {
		for _, pr := range ps {
			out.Add(rel.Tuple{pr.a, pr.c})
		}
	}
	return out, mergeStats(per)
}

// streamJoinChanCap bounds the per-chunk output channels of the
// JoinStream variants, in result chunks of up to engine.ChunkCap
// pairs each; see engine.OrderedMergeChunks.
const streamJoinChanCap = 4

// chunkSender batches one worker's emissions: pairs accumulate in a
// buffer of engine.ChunkCap rows that is sent as a whole when full —
// one channel operation per chunk instead of per pair, the exchange
// half of the vectorized-execution work. Sends select on the stop and
// done channels (either may be nil), so neither an abandoning
// consumer nor a query abort can strand a worker on a full channel;
// send reports false once either fires and the worker bails out.
type chunkSender struct {
	ch   chan []rel.Tuple
	buf  []rel.Tuple
	stop <-chan struct{} // consumer abandoned the merge
	done <-chan struct{} // query aborted
	dead bool
}

func (s *chunkSender) send(t rel.Tuple) bool {
	if s.dead {
		return false
	}
	if s.buf == nil {
		s.buf = make([]rel.Tuple, 0, engine.ChunkCap)
	}
	s.buf = append(s.buf, t)
	if len(s.buf) == engine.ChunkCap {
		if !s.flush() {
			return false
		}
	}
	return true
}

func (s *chunkSender) flush() bool {
	buf := s.buf
	s.buf = nil
	select {
	case s.ch <- buf:
		return true
	case <-s.stop:
	case <-s.done:
	}
	s.dead = true
	return false
}

func (s *chunkSender) closeFlush() {
	if len(s.buf) > 0 && !s.dead {
		s.flush()
	}
	close(s.ch)
}

// JoinStream runs the signature containment join on the worker pool
// and produces the result as a cursor: contiguous R chunks are
// verified concurrently, each streaming its (a, c) pairs through a
// bounded channel in engine.ChunkCap-pair batches, and the returned
// cursor drains the chunks in chunk order — the exact sequential
// SignatureContainment emission sequence — while later chunks are
// still being verified. Partition boundaries hold no materialized
// output beyond one in-flight buffer per worker; backpressure from
// the bounded channels paces workers that run ahead of the consumer.
// The cursor must be drained to exhaustion. With one worker the
// sequential join runs inline and its result is streamed.
//
// The byte-identical guarantee assumes distinct group keys per side,
// which Groups establishes; a hand-built list repeating a key can make
// the stream emit a pair twice where a materialized result relation
// would deduplicate it.
//
// The returned cursor supports early Close (it is an
// engine.OrderedMergeChunks merge with a stop): Close unblocks the
// workers and drains the channels, so abandoning the stream leaks
// nothing.
//
// g governs the stream; nil means ungoverned, and the early-Close
// escape hatch works either way. Governed, worker sends also select on
// the governor's Done channel and a panicking worker aborts the query;
// callers check g.Err().
func (p ParallelSignatureContainment) JoinStream(g *exec.Governor, r, s []*Group) engine.Cursor {
	ex := engine.Executor{Workers: p.Workers}
	if ex.WorkerCount() <= 1 {
		res, _ := SignatureContainment{}.Join(r, s)
		return res.Cursor()
	}
	chunks := chunkRanges(len(r), ex.PartitionCount())
	chans := make([]chan []rel.Tuple, len(chunks))
	for c := range chans {
		chans[c] = make(chan []rel.Tuple, streamJoinChanCap)
	}
	stop := engine.NewStop()
	done := g.Done()
	go func() {
		claimed := make([]atomic.Bool, len(chunks))
		ex.Run(g, len(chunks), func(c int) {
			claimed[c].Store(true)
			snd := chunkSender{ch: chans[c], stop: stop.C(), done: done}
			defer snd.closeFlush()
			var cmp int
			for _, gr := range r[chunks[c][0]:chunks[c][1]] {
				for _, gs := range s {
					if gs.sig&^gr.sig != 0 {
						continue
					}
					if gr.ContainsAll(gs, &cmp) && !snd.send(rel.Tuple{gr.Key, gs.Key}) {
						return
					}
				}
			}
		})
		// After an abort Run skips unclaimed chunks; close
		// their channels so the merge cursor still terminates.
		for c := range chans {
			if !claimed[c].Load() {
				close(chans[c])
			}
		}
	}()
	return engine.OrderedMergeChunks(stop, chans)
}

// ParallelHashEquality is the canonical-encoding hash equality join
// with a parallel probe phase: the R-side index is built sequentially
// on a shared Dict (interned element IDs — the build phase is the only
// writer of the dictionary), then contiguous chunks of S probe it
// concurrently through the read-only Dict.ProbeKey path. Chunk outputs
// concatenate in chunk order, matching the sequential HashEquality
// emission order exactly.
type ParallelHashEquality struct {
	// Workers is the goroutine pool size; values <= 0 mean one worker
	// per CPU.
	Workers int
}

// Name implements Algorithm.
func (ParallelHashEquality) Name() string { return "parallel-hash-equality" }

// Predicate implements Algorithm.
func (ParallelHashEquality) Predicate() Predicate { return Equal }

// Join implements Algorithm.
func (p ParallelHashEquality) Join(r, s []*Group) (*rel.Relation, Stats) {
	ex := engine.Executor{Workers: p.Workers}
	if ex.WorkerCount() <= 1 {
		return HashEquality{}.Join(r, s)
	}
	var build Stats
	dict := NewDict()
	index := make(map[string][]*Group, len(r))
	for _, gr := range r {
		build.Probes++
		k := dict.Key(gr)
		index[k] = append(index[k], gr)
	}
	chunks := chunkRanges(len(s), ex.PartitionCount())
	pairs := make([][]pair, len(chunks))
	per := make([]Stats, len(chunks))
	ex.Run(nil, len(chunks), func(c int) {
		st := &per[c]
		for _, gs := range s[chunks[c][0]:chunks[c][1]] {
			st.Probes++
			k, ok := dict.ProbeKey(gs)
			if !ok {
				continue // an element no R-set has: equality impossible
			}
			for _, gr := range index[k] {
				st.PairsConsidered++
				pairs[c] = append(pairs[c], pair{gr.Key, gs.Key})
			}
		}
	})
	out := rel.NewRelation(2)
	for _, ps := range pairs {
		for _, pr := range ps {
			out.Add(rel.Tuple{pr.a, pr.c})
		}
	}
	st := mergeStats(per)
	st.Probes += build.Probes
	return out, st
}

// JoinStream is the cursor-producing hash equality join: the R-side
// index and shared dictionary are built sequentially, then contiguous
// S chunks probe concurrently (read-only, via Dict.ProbeKey) and
// stream their pairs through bounded channels in engine.ChunkCap-pair
// batches merged in chunk order — the exact sequential HashEquality
// emission sequence. The cursor must be drained to exhaustion. With
// one worker the sequential join runs inline and its result is
// streamed. As with JoinStream on the containment side, byte-identity
// assumes the distinct group keys Groups establishes.
// The returned cursor supports early Close, exactly as on the
// containment side.
//
// g governs the stream as on the containment side; in addition a
// panic in the build phase aborts the query, and every channel is
// still closed so the merge cursor terminates.
func (p ParallelHashEquality) JoinStream(g *exec.Governor, r, s []*Group) engine.Cursor {
	ex := engine.Executor{Workers: p.Workers}
	if ex.WorkerCount() <= 1 {
		res, _ := HashEquality{}.Join(r, s)
		return res.Cursor()
	}
	chunks := chunkRanges(len(s), ex.PartitionCount())
	chans := make([]chan []rel.Tuple, len(chunks))
	for c := range chans {
		chans[c] = make(chan []rel.Tuple, streamJoinChanCap)
	}
	stop := engine.NewStop()
	done := g.Done()
	go func() {
		built := false
		defer func() {
			if g != nil {
				g.AbortRecovered(recover())
			}
			if !built {
				// Build-phase failure: the workers never ran, so close
				// the channels here or the merge cursor never terminates.
				for _, ch := range chans {
					close(ch)
				}
			}
		}()
		dict := NewDict()
		index := make(map[string][]*Group, len(r))
		for _, gr := range r {
			k := dict.Key(gr)
			index[k] = append(index[k], gr)
		}
		built = true
		claimed := make([]atomic.Bool, len(chunks))
		ex.Run(g, len(chunks), func(c int) {
			claimed[c].Store(true)
			snd := chunkSender{ch: chans[c], stop: stop.C(), done: done}
			defer snd.closeFlush()
			for _, gs := range s[chunks[c][0]:chunks[c][1]] {
				k, ok := dict.ProbeKey(gs)
				if !ok {
					continue
				}
				for _, gr := range index[k] {
					if !snd.send(rel.Tuple{gr.Key, gs.Key}) {
						return
					}
				}
			}
		})
		// After an abort Run skips unclaimed chunks; close
		// their channels so the merge cursor still terminates.
		for c := range chans {
			if !claimed[c].Load() {
				close(chans[c])
			}
		}
	}()
	return engine.OrderedMergeChunks(stop, chans)
}
