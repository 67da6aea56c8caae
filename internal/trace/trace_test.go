package trace

import (
	"errors"
	"testing"

	"repro/internal/isa"
)

func mkInsts(n int) []isa.Inst {
	out := make([]isa.Inst, n)
	for i := range out {
		out[i] = isa.Inst{
			Seq:     uint64(i),
			PC:      0x1000 + uint64(i)*4,
			Class:   isa.IntALU,
			NumSrcs: 1,
			Src:     [2]isa.Reg{{Idx: uint8(i % 20)}},
			HasDest: true,
			Dest:    isa.Reg{Idx: uint8((i + 1) % 20)},
		}
	}
	return out
}

func TestSliceStream(t *testing.T) {
	s := NewSlice(mkInsts(3))
	for i := 0; i < 3; i++ {
		in, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if in.Seq != uint64(i) {
			t.Fatalf("instruction %d has seq %d", i, in.Seq)
		}
	}
	if _, err := s.Next(); !errors.Is(err, ErrEnd) {
		t.Fatalf("expected ErrEnd, got %v", err)
	}
}

func TestSliceReset(t *testing.T) {
	s := NewSlice(mkInsts(2))
	s.Next()
	s.Next()
	s.Reset()
	in, err := s.Next()
	if err != nil || in.Seq != 0 {
		t.Fatalf("after reset: %v, %v", in.Seq, err)
	}
}

func TestLimitTruncates(t *testing.T) {
	l := NewLimit(NewSlice(mkInsts(10)), 4)
	n := 0
	for {
		_, err := l.Next()
		if errors.Is(err, ErrEnd) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 4 {
		t.Fatalf("limit yielded %d instructions, want 4", n)
	}
}

func TestLimitLongerThanStream(t *testing.T) {
	l := NewLimit(NewSlice(mkInsts(3)), 10)
	got, err := Collect(l, 0)
	if err != nil || len(got) != 3 {
		t.Fatalf("collect: %d, %v", len(got), err)
	}
}

func TestCollectMax(t *testing.T) {
	got, err := Collect(NewSlice(mkInsts(10)), 5)
	if err != nil || len(got) != 5 {
		t.Fatalf("collect with max: %d, %v", len(got), err)
	}
}

// errStream replays its inner stream, then fails every pull with err
// instead of ErrEnd — the shape of a decoder hitting a corrupt record.
type errStream struct {
	inner Stream
	err   error
}

func (e *errStream) Next() (isa.Inst, error) {
	in, err := e.inner.Next()
	if errors.Is(err, ErrEnd) {
		return isa.Inst{}, e.err
	}
	return in, err
}

func TestLimitPropagatesStreamError(t *testing.T) {
	wantErr := errors.New("corrupt record")
	l := NewLimit(&errStream{inner: NewSlice(mkInsts(2)), err: wantErr}, 5)
	for i := 0; i < 2; i++ {
		if _, err := l.Next(); err != nil {
			t.Fatalf("instruction %d: %v", i, err)
		}
	}
	// The inner error must surface as-is, not be masked into ErrEnd, and
	// the wrapped stream must stay errored on every subsequent pull.
	for i := 0; i < 2; i++ {
		if _, err := l.Next(); !errors.Is(err, wantErr) {
			t.Fatalf("pull %d after error: got %v, want %v", i, err, wantErr)
		}
	}
}

func TestCollectReturnsPartialOnError(t *testing.T) {
	wantErr := errors.New("corrupt record")
	got, err := Collect(&errStream{inner: NewSlice(mkInsts(4)), err: wantErr}, 0)
	if !errors.Is(err, wantErr) {
		t.Fatalf("collect over errored stream: got %v, want %v", err, wantErr)
	}
	if len(got) != 4 {
		t.Fatalf("collect kept %d instructions before the error, want 4", len(got))
	}
	// With max below the error point the failure is never reached.
	got, err = Collect(&errStream{inner: NewSlice(mkInsts(4)), err: wantErr}, 2)
	if err != nil || len(got) != 2 {
		t.Fatalf("collect with max 2: %d, %v", len(got), err)
	}
}

func TestValidateCountsAndChecksOrder(t *testing.T) {
	n, err := Validate(NewSlice(mkInsts(7)))
	if err != nil || n != 7 {
		t.Fatalf("validate: %d, %v", n, err)
	}
	bad := mkInsts(3)
	bad[2].Seq = 1 // duplicate
	if _, err := Validate(NewSlice(bad)); err == nil {
		t.Fatal("non-increasing sequence accepted")
	}
}
