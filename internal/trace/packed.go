package trace

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/isa"
)

// Rec is one instruction in the decoded form the simulator's front end
// reads: the register bytes and operand flag bits next to the PC and a
// single address word. Seq is not held — it is the owning store's base
// plus the record's position — and EffAddr and Target share Addr,
// because no instruction class uses both. A Packed store keeps its
// records encoded (see coder); Replay decodes them into a Rec one at a
// time.
type Rec struct {
	PC uint64
	// Addr is EffAddr for loads and stores, Target for branches, zero
	// otherwise.
	Addr  uint64
	Class isa.Class
	// flags holds the operand flags (see operandFlags); Class says
	// whether Addr is meaningful.
	flags            uint8
	src0, src1, dest uint8
}

// Operand flag bits: bits 0-1 hold NumSrcs, the rest one fact each. An
// encoded record carries this byte as is (see coder).
const (
	flagHasDest = 1 << 2
	flagTaken   = 1 << 3
	flagSrc0FP  = 1 << 4
	flagSrc1FP  = 1 << 5
	flagDestFP  = 1 << 6
)

// operandFlags packs in's source count, destination and branch outcome
// and the register namespace of each operand slot.
func operandFlags(in *isa.Inst) uint8 {
	flags := in.NumSrcs & 3
	if in.HasDest {
		flags |= flagHasDest
	}
	if in.Taken {
		flags |= flagTaken
	}
	if in.Src[0].Kind == isa.FPReg {
		flags |= flagSrc0FP
	}
	if in.Src[1].Kind == isa.FPReg {
		flags |= flagSrc1FP
	}
	if in.Dest.Kind == isa.FPReg {
		flags |= flagDestFP
	}
	return flags
}

// kind is the register namespace one FP flag bit names.
func kind(fp bool) isa.RegFileKind {
	if fp {
		return isa.FPReg
	}
	return isa.IntReg
}

// MakeRec packs the fields of in that the layout holds. It is lossless for
// every instruction a Packed store accepts (Append checks exactly that);
// for an arbitrary instruction it keeps what the timing model reads — the
// address word of the instruction's own class — and drops the rest.
func MakeRec(in *isa.Inst) Rec {
	var r Rec
	r.set(in)
	return r
}

// set is MakeRec into r. Append fills its record in place: the compiler
// copies a returned Rec through a temporary with 16-byte loads spanning
// the one-byte stores just made, which the CPU cannot forward, so each
// copy stalls.
func (r *Rec) set(in *isa.Inst) {
	r.PC, r.Class, r.flags = in.PC, in.Class, operandFlags(in)
	r.src0, r.src1, r.dest = in.Src[0].Idx, in.Src[1].Idx, in.Dest.Idx
	switch {
	case in.Class.IsMem():
		r.Addr = in.EffAddr
	case in.Class.IsBranch():
		r.Addr = in.Target
	default:
		r.Addr = 0
	}
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

// holds reports whether r reproduces in at sequence number seq — whether
// r.Inst(seq) == *in — comparing field by field what that comparison
// compares, without building the instruction: the register namespaces
// come back from one flag bit each, and the address word the class does
// not use comes back zero.
func (r *Rec) holds(in *isa.Inst, seq uint64) bool {
	var eff, target uint64
	switch {
	case r.Class.IsMem():
		eff = r.Addr
	case r.Class.IsBranch():
		target = r.Addr
	}
	return in.Seq == seq && in.PC == r.PC && in.Class == r.Class &&
		in.NumSrcs == r.NumSrcs() &&
		in.Src[0] == isa.Reg{Kind: kind(r.flags&flagSrc0FP != 0), Idx: r.src0} &&
		in.Src[1] == isa.Reg{Kind: kind(r.flags&flagSrc1FP != 0), Idx: r.src1} &&
		in.HasDest == (r.flags&flagHasDest != 0) && in.Dest == r.Dest() &&
		in.Taken == r.Taken() && in.EffAddr == eff && in.Target == target
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

// The store's record encoding: a five-byte header and up to two varints.
//
//	header:  u8 class|hasPC|hasAddr | u8 flags | u8 src0 | u8 src1 | u8 dest
//	[uvarint PC]      when the PC is not the predicted one
//	[varint  delta]   loads/stores: EffAddr − the previous memory record's
//	                  EffAddr, omitted when 0; branches: Target − PC,
//	                  omitted when Target is 0 (not-taken branches)
//
// The predicted PC is the previous record's PC + 4, or its Target when it
// was a taken branch. Prediction state starts from zero at every segment,
// so each segment decodes on its own.
const (
	classMask = 0x3f
	hasPC     = 0x40
	hasAddr   = 0x80

	maxEncoded = 5 + 2*binary.MaxVarintLen64
)

// coder is the prediction state encoder and decoder share: what the next
// record's PC and address word are measured against.
type coder struct {
	pc  uint64 // predicted PC of the next record
	mem uint64 // EffAddr of the previous memory record
}

// encode writes rec at the start of b, which has room for maxEncoded
// bytes, and returns its length.
func (c *coder) encode(b []byte, rec *Rec) int {
	h := uint8(rec.Class) & classMask // a class past the mask replays as another, and Append refuses it
	n := 5
	if rec.PC != c.pc {
		h |= hasPC
		n += binary.PutUvarint(b[n:], rec.PC)
	}
	switch {
	case rec.Class.IsMem() && rec.Addr != c.mem:
		h |= hasAddr
		n += binary.PutVarint(b[n:], int64(rec.Addr-c.mem))
		c.mem = rec.Addr
	case rec.Class.IsBranch() && rec.Addr != 0:
		h |= hasAddr
		n += binary.PutVarint(b[n:], int64(rec.Addr-rec.PC))
	}
	b[0], b[1], b[2], b[3], b[4] = h, rec.flags, rec.src0, rec.src1, rec.dest
	c.advance(rec)
	return n
}

// advance moves the PC prediction past rec.
func (c *coder) advance(rec *Rec) {
	taken := mask(rec.Class.IsBranch() && rec.Taken())
	c.pc = (rec.PC+4)&^taken | rec.Addr&taken
}

// mask is all ones when b holds, zero otherwise.
func mask(b bool) uint64 {
	if b {
		return ^uint64(0)
	}
	return 0
}

// uvarint decodes the varint the encoder wrote at b[i:] and returns where
// it ends.
func uvarint(b []byte, i int) (uint64, int) {
	var v uint64
	for s := uint(0); ; s += 7 {
		c := b[i]
		i++
		if c < 0x80 {
			return v | uint64(c)<<s, i
		}
		v |= uint64(c&0x7f) << s
	}
}

// segmentBytes is the segment a store allocates: 32 KiB, about five
// thousand records, and Go's largest small-object size class. A store
// filled from a source of unknown length wastes at most that much, and a
// freed store leaves spans the next one can reuse.
const segmentBytes = 32 << 10

// segment is a run of encoded records that decodes on its own.
type segment struct {
	data []byte // the encoded records
	n    int    // how many
}

// Packed is an append-only store of encoded records for one instruction
// stream. It grows by segments of segmentBytes, each allocated when the
// first record that lands in it arrives, and never rewrites a byte
// once written, so a View taken earlier stays valid while the store is
// extended. Reserve allocates nothing: it names the length at which the
// store cuts its last segment to the bytes written, so a store filled to
// that length holds under maxEncoded bytes of slack per segment plus the
// allocator's rounding. Appending and taking views need external
// serialization; reading through a View needs none.
type Packed struct {
	base  uint64    // Seq of record 0
	n     int       // records written
	want  int       // the length Reserve asked for
	bytes uint64    // capacity of every segment the store holds
	segs  []segment // sealed segments, never written again
	buf   []byte    // the open segment's allocation, nil when none is open
	used  int       // bytes of buf written
	open  int       // records in buf
	enc   coder     // prediction state after the open segment's last record
	check struct {  // where Append replays a record before committing it
		Replay
		scratch [maxEncoded]byte // a record that opens a fresh segment is encoded here
	}
}

// Len returns the number of records written.
func (p *Packed) Len() int { return p.n }

// Bytes returns the memory the store's segments occupy, slack included.
func (p *Packed) Bytes() uint64 { return p.bytes }

// Reserve declares that the store is being filled to n records in total,
// so the segment that reaches n is cut to what it holds. It allocates
// nothing: memory follows the records as they arrive.
func (p *Packed) Reserve(n int) {
	p.want = max(p.want, n)
}

// Append adds one instruction. It rejects an instruction whose Seq does not
// continue the stream or whose fields the encoding cannot reproduce.
func (p *Packed) Append(in *isa.Inst) error {
	if p.n == 0 {
		p.base = in.Seq
	}
	seq := p.base + uint64(p.n)
	var rec Rec
	rec.set(in)
	if !rec.holds(in, seq) {
		if in.Seq != seq {
			return fmt.Errorf("trace: packed store at seq %d cannot take seq %d", seq, in.Seq)
		}
		// The string, not in: handing the pointer to fmt would move every
		// caller's instruction to the heap.
		return fmt.Errorf("trace: packed layout cannot hold instruction %s", in.String())
	}
	// Encode against the state of the segment the record lands in — in
	// place past the open segment's written bytes, or into the scratch
	// buffer when the record opens a fresh segment — and replay it before
	// anything is committed. Views read only below used, so the bytes
	// written past it are invisible until the record is accepted.
	fresh := len(p.buf)-p.used < maxEncoded
	enc, dst := p.enc, p.buf[p.used:]
	if fresh {
		enc, dst = coder{}, p.check.scratch[:]
	}
	check := &p.check
	check.dec, check.off, check.more = enc, 0, 1
	k := enc.encode(dst, &rec)
	check.cur = dst[:k]
	back, _ := check.NextRec()
	check.cur = nil // a segment cut at Reserve's length must not stay reachable from here
	if check.off != k || *back != rec {
		clear(dst[:k]) // the open segment's unwritten bytes stay zero
		return fmt.Errorf("trace: packed encoding cannot hold instruction %s", in.String())
	}
	if fresh {
		p.openSegment()
		copy(p.buf, dst[:k])
	}
	p.used += k
	p.open++
	p.n++
	p.enc = enc
	if p.n == p.want {
		p.seal(true)
	}
	return nil
}

// openSegment seals the open segment, if any, and allocates the next.
func (p *Packed) openSegment() {
	if p.buf != nil {
		p.seal(false)
	}
	p.buf = make([]byte, segmentBytes)
	p.bytes += segmentBytes
}

// seal closes the open segment. With cut set its records move to an
// allocation of their own size and the rest of the segment is let go.
func (p *Packed) seal(cut bool) {
	data := p.buf[:p.used]
	if cut {
		data = slices.Clone(data)
		p.bytes = p.bytes - uint64(cap(p.buf)) + uint64(cap(data))
	}
	p.segs = append(p.segs, segment{data: data, n: p.open})
	p.buf, p.used, p.open, p.enc = nil, 0, 0, coder{}
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
	segs []segment // the store's sealed segments
	last segment   // its open segment, as far as it was written
	n    int
	base uint64
}

// View returns the store's first n records (all of them if it holds
// fewer).
func (p *Packed) View(n int) View {
	return View{
		segs: p.segs,
		last: segment{data: p.buf[:p.used], n: p.open},
		n:    min(n, p.n),
		base: p.base,
	}
}

// Len returns the number of records in the view.
func (v View) Len() int { return v.n }

// Replay returns a cursor at the start of the view.
func (v View) Replay() *Replay {
	return &Replay{rest: v.segs, last: v.last, left: v.n, seq: v.base, n: v.n}
}

// Replay is a cursor over a View. It is a Stream, and the simulator's
// front end additionally reads records through NextRec instead of
// decoding each into an isa.Inst.
type Replay struct {
	rec  Rec       // the record NextRec decodes into
	dec  coder     // prediction state within cur
	cur  []byte    // current segment
	off  int       // next unread byte of cur
	more int       // records of the view left in cur
	rest []segment // sealed segments after cur
	last segment   // the view's open segment, after rest
	left int       // records of the view after cur
	seq  uint64    // Seq of the next record
	n    int
}

// Len returns the total number of records the cursor replays.
func (r *Replay) Len() int { return r.n }

// NextRec returns the next record and its sequence number, or nil at the
// end of the view. The record belongs to the cursor and is overwritten by
// the next call. The address word and the next prediction are selected by
// masks, not branches: record classes interleave unpredictably.
func (r *Replay) NextRec() (*Rec, uint64) {
	for r.more == 0 {
		if !r.nextSeg() {
			return nil, 0
		}
	}
	r.more--
	b := r.cur[r.off:]
	_ = b[4]
	h := b[0]
	rec := &r.rec
	class := isa.Class(h & classMask)
	rec.Class, rec.flags, rec.src0, rec.src1, rec.dest = class, b[1], b[2], b[3], b[4]
	i := 5
	pc := r.dec.pc
	if h&hasPC != 0 {
		pc, i = uvarint(b, i)
	}
	var delta uint64
	if h&hasAddr != 0 {
		delta, i = uvarint(b, i)
		delta = delta>>1 ^ -(delta & 1) // zigzag, as binary.PutVarint wrote it
	}
	mem := mask(class.IsMem())
	r.dec.mem += delta & mem
	rec.PC = pc
	rec.Addr = r.dec.mem&mem | (pc+delta)&mask(class.IsBranch() && h&hasAddr != 0)
	r.dec.advance(rec)
	r.off += i
	r.seq++
	return rec, r.seq - 1
}

func (r *Replay) nextSeg() bool {
	if r.left == 0 {
		return false
	}
	s := r.last
	if len(r.rest) > 0 {
		s, r.rest = r.rest[0], r.rest[1:]
	} else {
		r.last = segment{}
	}
	r.cur, r.off, r.dec = s.data, 0, coder{}
	r.more = min(s.n, r.left)
	r.left -= r.more
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
