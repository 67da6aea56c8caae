package trace

import (
	"fmt"
	"unsafe"

	"repro/internal/isa"
)

// Rec is one materialized instruction in the packed in-memory layout: the
// wire codec's register bytes and flag bits (see codec.go) next to the PC
// and a single address word. Seq is not stored — it is the owning store's
// base plus the record's position — and EffAddr and Target share Addr,
// because no instruction class uses both.
type Rec struct {
	PC uint64
	// Addr is EffAddr for loads and stores, Target for branches, zero
	// otherwise.
	Addr  uint64
	Class isa.Class
	// flags uses the codec's bit layout minus flagPayload (Class says
	// whether Addr is meaningful).
	flags            uint8
	src0, src1, dest uint8
}

// RecBytes is the in-memory size of one packed record.
const RecBytes = int(unsafe.Sizeof(Rec{}))

// MakeRec packs the fields of in that the layout holds. It is lossless for
// every instruction a Packed store accepts (Append checks exactly that);
// for an arbitrary instruction it keeps what the timing model reads — the
// address word of the instruction's own class — and drops the rest.
func MakeRec(in *isa.Inst) Rec {
	r := Rec{
		PC:    in.PC,
		Class: in.Class,
		flags: operandFlags(in),
		src0:  in.Src[0].Idx,
		src1:  in.Src[1].Idx,
		dest:  in.Dest.Idx,
	}
	switch {
	case in.Class.IsMem():
		r.Addr = in.EffAddr
	case in.Class.IsBranch():
		r.Addr = in.Target
	}
	return r
}

// Inst decodes the record into a full instruction with the given sequence
// number.
func (r *Rec) Inst(seq uint64) isa.Inst {
	in := isa.Inst{
		Seq:     seq,
		PC:      r.PC,
		Class:   r.Class,
		NumSrcs: r.NumSrcs(),
		Src:     r.Src(),
		HasDest: r.flags&flagHasDest != 0,
		Dest:    r.Dest(),
		Taken:   r.Taken(),
	}
	switch {
	case r.Class.IsMem():
		in.EffAddr = r.Addr
	case r.Class.IsBranch():
		in.Target = r.Addr
	}
	return in
}

// NumSrcs is how many of Src are meaningful.
func (r *Rec) NumSrcs() uint8 { return r.flags & 3 }

// Src returns both source register slots.
func (r *Rec) Src() [2]isa.Reg {
	return [2]isa.Reg{
		{Kind: kind(r.flags&flagSrc0FP != 0), Idx: r.src0},
		{Kind: kind(r.flags&flagSrc1FP != 0), Idx: r.src1},
	}
}

// Dest returns the destination register slot.
func (r *Rec) Dest() isa.Reg {
	return isa.Reg{Kind: kind(r.flags&flagDestFP != 0), Idx: r.dest}
}

// WritesReg mirrors isa.Inst.WritesReg.
func (r *Rec) WritesReg() bool { return r.flags&flagHasDest != 0 && r.dest != isa.ZeroReg }

// Taken is the branch outcome.
func (r *Rec) Taken() bool { return r.flags&flagTaken != 0 }

// chunkRecs is the largest segment a store allocates: 96 KiB. A store
// filled from a source of unknown length wastes at most that much, and a
// freed store leaves pages the next one can reuse.
const chunkRecs = 4096

// Packed is an append-only store of packed records for one instruction
// stream. It grows by segments of at most chunkRecs records, each
// allocated when the first record that lands in it arrives, and never
// moves a record once written, so a View taken earlier stays valid while
// the store is extended. Reserve allocates nothing: it only cuts the
// segment that reaches the reserved length, so a store filled to that
// length holds no slack. Appending and taking views need external
// serialization; reading through a View needs none.
type Packed struct {
	base uint64  // Seq of record 0
	n    int     // records written
	room int     // records the segments can hold
	want int     // the length Reserve asked for
	segs [][]Rec // each at full length; records past n are unwritten
	tail []Rec   // the unwritten remainder of the last segment
}

// Len returns the number of records written.
func (p *Packed) Len() int { return p.n }

// Bytes returns the memory the store's segments occupy, slack included.
func (p *Packed) Bytes() uint64 { return uint64(p.room) * uint64(RecBytes) }

// Reserve declares that the store is being filled to n records in total,
// so the segment that reaches n is cut there instead of running a chunk
// long. It allocates nothing: memory follows the records as they arrive.
func (p *Packed) Reserve(n int) {
	p.want = max(p.want, n)
}

// Append adds one instruction. It rejects an instruction whose Seq does not
// continue the stream or whose fields the packed layout cannot hold.
func (p *Packed) Append(in *isa.Inst) error {
	if p.n == 0 {
		p.base = in.Seq
	}
	seq := p.base + uint64(p.n)
	rec := MakeRec(in)
	if rec.Inst(seq) != *in {
		if in.Seq != seq {
			return fmt.Errorf("trace: packed store at seq %d cannot take seq %d", seq, in.Seq)
		}
		// The string, not in: handing the pointer to fmt would move every
		// caller's instruction to the heap.
		return fmt.Errorf("trace: packed layout cannot hold instruction %s", in.String())
	}
	p.put(rec)
	return nil
}

func (p *Packed) put(rec Rec) {
	if len(p.tail) == 0 {
		size := chunkRecs
		if left := p.want - p.room; left > 0 {
			size = min(size, left)
		}
		p.tail = make([]Rec, size)
		p.segs = append(p.segs, p.tail)
		p.room += size
	}
	p.tail[0] = rec
	p.tail = p.tail[1:]
	p.n++
}

// Extend appends instructions from s until the store holds n records. A
// stream that ends first is reported as ErrEnd, with what it supplied kept.
func (p *Packed) Extend(s Stream, n int) error {
	for p.n < n {
		in, err := s.Next()
		if err != nil {
			return err
		}
		if err := p.Append(&in); err != nil {
			return err
		}
	}
	return nil
}

// View is a read-only prefix of a Packed store, valid for as long as it is
// held and unaffected by later appends to the store.
type View struct {
	segs [][]Rec
	n    int
	base uint64
}

// View returns the store's first n records (all of them if it holds
// fewer).
func (p *Packed) View(n int) View {
	if n > p.n {
		n = p.n
	}
	return View{segs: p.segs, n: n, base: p.base}
}

// Len returns the number of records in the view.
func (v View) Len() int { return v.n }

// Replay returns a cursor at the start of the view.
func (v View) Replay() *Replay {
	return &Replay{rest: v.segs, left: v.n, seq: v.base, n: v.n}
}

// Replay is a cursor over a View. It is a Stream, and the simulator's
// front end additionally reads records in place through NextRec instead of
// decoding each into an isa.Inst.
type Replay struct {
	cur  []Rec   // current segment, cut to the view
	pos  int     // next unread record of cur
	rest [][]Rec // segments after cur
	left int     // records of the view that lie in rest
	seq  uint64  // Seq of cur[pos]
	n    int
}

// Len returns the total number of records the cursor replays.
func (r *Replay) Len() int { return r.n }

// NextRec returns the next record and its sequence number, or nil at the
// end of the view. The record is shared, immutable storage.
func (r *Replay) NextRec() (*Rec, uint64) {
	if r.pos == len(r.cur) && !r.nextSeg() {
		return nil, 0
	}
	rec := &r.cur[r.pos]
	r.pos++
	r.seq++
	return rec, r.seq - 1
}

func (r *Replay) nextSeg() bool {
	if r.left == 0 {
		return false
	}
	r.cur, r.rest, r.pos = r.rest[0], r.rest[1:], 0
	if len(r.cur) > r.left {
		r.cur = r.cur[:r.left]
	}
	r.left -= len(r.cur)
	return true
}

// Next implements Stream.
func (r *Replay) Next() (isa.Inst, error) {
	rec, seq := r.NextRec()
	if rec == nil {
		return isa.Inst{}, ErrEnd
	}
	return rec.Inst(seq), nil
}
