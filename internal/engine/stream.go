package engine

// This file holds the small shared pieces of the exchanges
// (batchstream.go) and of the cursor-producing parallel algorithms
// built on them (division.ParallelHash.DivideStream, the set-join
// JoinStreams): the stop broadcast that unblocks producers when their
// consumer goes away early, the abandonable send every bounded-channel
// producer uses, and the tuple cursor those algorithms consume and
// produce.

import (
	"sync"

	"radiv/internal/rel"
)

// Stop is a one-shot broadcast used to unblock producers when their
// consumer goes away early: producers send with SendOr against the
// stop channel, the abandoning side calls Stop. A nil *Stop is valid
// and means "never stops" (C returns nil, which blocks forever in a
// select, so SendOr degenerates to a plain send).
type Stop struct {
	once sync.Once
	ch   chan struct{}
}

// NewStop returns a fresh, unfired Stop.
func NewStop() *Stop { return &Stop{ch: make(chan struct{})} }

// C returns the channel closed when Stop fires.
func (s *Stop) C() <-chan struct{} {
	if s == nil {
		return nil
	}
	return s.ch
}

// Stop fires the broadcast. Idempotent and safe from any goroutine.
func (s *Stop) Stop() {
	if s != nil {
		s.once.Do(func() { close(s.ch) })
	}
}

// SendOr sends v on ch, or gives up when done is closed first,
// reporting whether the send happened. A nil done is a plain
// (blocking) send. This is the shape every bounded-channel producer
// in the exchanges uses, so an early consumer close — or a query
// abort — can never strand a producer on a full channel.
func SendOr[T any](ch chan<- T, v T, done <-chan struct{}) bool {
	if done == nil {
		ch <- v
		return true
	}
	select {
	case ch <- v:
		return true
	case <-done:
		return false
	}
}

// Cursor is the engine's pull-based tuple iterator. It is structurally
// identical to rel.NextCursor, so stored-relation scans (*rel.Cursor,
// rel.TupleCursor) satisfy it without adaptation.
type Cursor interface {
	Next() (rel.Tuple, bool)
}

// ChanCursor adapts a channel to a Cursor: Next blocks until a tuple
// arrives or the channel closes.
type ChanCursor struct{ C <-chan rel.Tuple }

// Next implements Cursor.
func (c ChanCursor) Next() (rel.Tuple, bool) {
	t, ok := <-c.C
	return t, ok
}
