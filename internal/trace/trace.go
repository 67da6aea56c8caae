// Package trace defines how dynamic instruction streams reach the
// simulator: a pull-based Stream interface, an in-memory implementation,
// and the packed store materialized traces live in (Packed, read through
// View and Replay).
package trace

import (
	"errors"
	"fmt"

	"repro/internal/isa"
)

// ErrEnd is returned by Stream.Next when the trace is exhausted.
var ErrEnd = errors.New("trace: end of stream")

// Stream supplies dynamic instructions in program order. Implementations
// need not be safe for concurrent use; the simulator pulls from a single
// goroutine.
type Stream interface {
	// Next returns the next instruction in program order, or ErrEnd when
	// the stream is exhausted. The returned instruction is by value; the
	// stream retains no reference to it.
	Next() (isa.Inst, error)
}

// Slice is a Stream over an in-memory instruction slice.
type Slice struct {
	insts []isa.Inst
	pos   int
}

// NewSlice returns a Stream that replays insts in order. The slice is not
// copied; the caller must not mutate it while the stream is in use.
func NewSlice(insts []isa.Inst) *Slice {
	return &Slice{insts: insts}
}

// Next implements Stream.
func (s *Slice) Next() (isa.Inst, error) {
	if s.pos >= len(s.insts) {
		return isa.Inst{}, ErrEnd
	}
	in := s.insts[s.pos]
	s.pos++
	return in, nil
}

// Reset rewinds the stream to the beginning.
func (s *Slice) Reset() { s.pos = 0 }

// Len returns the total number of instructions in the underlying slice.
func (s *Slice) Len() int { return len(s.insts) }

// Limit wraps a Stream and truncates it after n instructions.
type Limit struct {
	inner Stream
	left  uint64
}

// NewLimit returns a Stream that yields at most n instructions from inner.
func NewLimit(inner Stream, n uint64) *Limit {
	return &Limit{inner: inner, left: n}
}

// Next implements Stream.
func (l *Limit) Next() (isa.Inst, error) {
	if l.left == 0 {
		return isa.Inst{}, ErrEnd
	}
	in, err := l.inner.Next()
	if err != nil {
		return isa.Inst{}, err
	}
	l.left--
	return in, nil
}

// Collect drains up to max instructions from s into a fresh slice.
// A max of 0 means no limit.
func Collect(s Stream, max int) ([]isa.Inst, error) {
	var out []isa.Inst
	for {
		if max > 0 && len(out) >= max {
			return out, nil
		}
		in, err := s.Next()
		if errors.Is(err, ErrEnd) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, in)
	}
}

// Validate drains the stream, checking every instruction's structural
// validity and that sequence numbers strictly increase. It returns the
// number of instructions seen.
func Validate(s Stream) (uint64, error) {
	var n uint64
	var lastSeq uint64
	first := true
	for {
		in, err := s.Next()
		if errors.Is(err, ErrEnd) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := in.Validate(); err != nil {
			return n, err
		}
		if !first && in.Seq <= lastSeq {
			return n, fmt.Errorf("trace: sequence not increasing at #%d (prev %d)", in.Seq, lastSeq)
		}
		lastSeq, first = in.Seq, false
		n++
	}
}
