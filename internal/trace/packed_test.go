package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"weak"

	"repro/internal/isa"
)

// packAll appends insts to a fresh store.
func packAll(t testing.TB, insts []isa.Inst) *Packed {
	t.Helper()
	var p Packed
	if err := p.Extend(NewSlice(insts), len(insts)); err != nil {
		t.Fatal(err)
	}
	return &p
}

// randInst produces a structurally valid random instruction.
func randInst(r *rand.Rand, seq uint64) isa.Inst {
	classes := []isa.Class{
		isa.IntALU, isa.IntMult, isa.IntDiv, isa.FPAdd, isa.FPMult,
		isa.FPDiv, isa.Load, isa.Store, isa.Branch,
	}
	in := isa.Inst{
		Seq:   seq,
		PC:    r.Uint64() &^ 3,
		Class: classes[r.Intn(len(classes))],
	}
	kind := func() isa.RegFileKind {
		if r.Intn(2) == 0 {
			return isa.IntReg
		}
		return isa.FPReg
	}
	in.NumSrcs = uint8(r.Intn(3))
	for i := uint8(0); i < in.NumSrcs; i++ {
		in.Src[i] = isa.Reg{Kind: kind(), Idx: uint8(r.Intn(isa.NumArchRegs))}
	}
	switch in.Class {
	case isa.Store:
		in.NumSrcs = 2
		in.Src[0] = isa.Reg{Kind: isa.IntReg, Idx: uint8(r.Intn(31))}
		in.Src[1] = isa.Reg{Kind: kind(), Idx: uint8(r.Intn(31))}
		in.EffAddr = r.Uint64()
	case isa.Load:
		in.EffAddr = r.Uint64()
		in.HasDest = true
		in.Dest = isa.Reg{Kind: kind(), Idx: uint8(r.Intn(31))}
	case isa.Branch:
		in.Taken = r.Intn(2) == 0
		if in.Taken {
			in.Target = r.Uint64() &^ 3
		}
	default:
		in.HasDest = true
		in.Dest = isa.Reg{Kind: kind(), Idx: uint8(r.Intn(31))}
	}
	return in
}

// walkInsts is a stream shaped like a generator's — mostly sequential PCs,
// taken branches followed to their targets, branch targets and data
// addresses near the PC and the previous address — with one random
// instruction (every field far from any prediction) in five, so every
// path of the store's encoding is taken.
func walkInsts(seed int64, n int) []isa.Inst {
	r := rand.New(rand.NewSource(seed))
	out := make([]isa.Inst, n)
	pc, addr := uint64(0x4000), uint64(0x10000)
	for i := range out {
		in := randInst(r, uint64(i))
		if r.Intn(5) != 0 {
			in.PC = pc
			switch {
			case in.Class.IsMem():
				addr += uint64(r.Intn(129)) - 64
				in.EffAddr = addr
			case in.Taken:
				in.Target = pc + uint64(r.Intn(64))*4 - 128
			}
		}
		out[i] = in
		pc = in.PC + 4
		if in.Taken {
			pc = in.Target
		}
	}
	return out
}

// encodedBytes is what the store's records occupy, without slack.
func encodedBytes(p *Packed) uint64 {
	n := uint64(p.used)
	for _, s := range p.segs {
		n += uint64(len(s.data))
	}
	return n
}

// cutExactly reports whether a segment's allocation is its records' bytes
// as the allocator rounds a right-sized allocation, and no more.
func cutExactly(s segment) bool {
	return cap(s.data) == cap(append([]byte(nil), s.data...))
}

// expectReplay drains s and compares it with want.
func expectReplay(t testing.TB, what string, s Stream, want []isa.Inst) {
	t.Helper()
	for i := range want {
		if got, err := s.Next(); err != nil || got != want[i] {
			t.Fatalf("%s: record %d: got %+v, %v; want %+v", what, i, got, err, want[i])
		}
	}
	if _, err := s.Next(); !errors.Is(err, ErrEnd) {
		t.Fatalf("%s: ran on past %d records: %v", what, len(want), err)
	}
}

// TestPackedRandomRoundTrip: random instructions survive the packed
// layout field for field, Seq included, from a non-zero base.
func TestPackedRandomRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	insts := make([]isa.Inst, 6000)
	for i := range insts {
		insts[i] = randInst(r, 1000+uint64(i))
	}
	p := packAll(t, insts)
	if len(p.segs) < 2 {
		t.Fatalf("%d instructions fill %d segment(s), want them to cross a boundary", len(insts), len(p.segs)+1)
	}
	got, err := Collect(p.View(len(insts)).Replay(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(insts) {
		t.Fatalf("replayed %d instructions, want %d", len(got), len(insts))
	}
	for i := range insts {
		if got[i] != insts[i] {
			t.Fatalf("instruction %d: got %+v want %+v", i, got[i], insts[i])
		}
	}
}

// rejectLead is the record a store holds before each rejectCases
// instruction is offered to it.
var rejectLead = isa.Inst{Seq: 5, Class: isa.Load, HasDest: true, Dest: isa.Reg{Idx: 1}, EffAddr: 64}

// rejectCases are instructions the layout cannot hold, each rejectLead's
// successor with one field broken.
var rejectCases = map[string]func(in *isa.Inst){
	"gap in seq":            func(in *isa.Inst) { in.Seq = 7 },
	"repeated seq":          func(in *isa.Inst) { in.Seq = 5 },
	"load with target":      func(in *isa.Inst) { in.Target = 8 },
	"alu with effaddr":      func(in *isa.Inst) { in.Class = isa.IntALU },
	"branch with effaddr":   func(in *isa.Inst) { in.Class, in.HasDest, in.Dest = isa.Branch, false, isa.Reg{} },
	"three sources":         func(in *isa.Inst) { in.NumSrcs = 4 },
	"unknown register set":  func(in *isa.Inst) { in.Dest.Kind = 2 },
	"class past the header": func(in *isa.Inst) { in.Class, in.EffAddr = classMask+1, 0 },
}

// rejected returns rejectLead's successor broken by mutate.
func rejected(mutate func(in *isa.Inst)) isa.Inst {
	in := rejectLead
	in.Seq = 6
	mutate(&in)
	return in
}

// TestPackedAppendRejects: what the layout cannot hold is refused, not
// silently dropped, and a refusal leaves the store as it was, its bytes
// included.
func TestPackedAppendRejects(t *testing.T) {
	for name, mutate := range rejectCases {
		var p Packed
		if err := p.Append(&rejectLead); err != nil {
			t.Fatal(err)
		}
		before := p.Bytes()
		buf := slices.Clone(p.buf)
		in := rejected(mutate)
		if err := p.Append(&in); err == nil {
			t.Errorf("%s: accepted %+v", name, in)
		}
		if p.Len() != 1 || p.Bytes() != before || !bytes.Equal(p.buf, buf) {
			t.Errorf("%s: refused append changed the store (len %d, %d bytes)", name, p.Len(), p.Bytes())
		}
	}
}

// TestPackedExtension: a view taken before the store grows replays the
// same records afterwards and still ends where it did — across segments
// cut at a reserved length and across the whole segments Append opens —
// and the store never holds more than one segment of slack.
func TestPackedExtension(t *testing.T) {
	insts := walkInsts(2, 20_000)
	var p Packed
	p.Reserve(100)
	if err := p.Extend(NewSlice(insts), 100); err != nil {
		t.Fatal(err)
	}
	if len(p.segs) != 1 || p.buf != nil || !cutExactly(p.segs[0]) || p.Bytes() != uint64(cap(p.segs[0].data)) {
		t.Fatalf("reserved store: %d sealed segments, %d bytes for %d encoded, want one segment cut to its records",
			len(p.segs), p.Bytes(), encodedBytes(&p))
	}
	short := p.View(60)
	half := short.Replay()
	for i := 0; i < 30; i++ {
		if in, err := half.Next(); err != nil || in != insts[i] {
			t.Fatalf("record %d before growth: %+v, %v", i, in, err)
		}
	}

	// Grow three ways: reserve after the first segment was cut, append
	// past all reserved room (whole segments), reserve again.
	rest := NewSlice(insts[100:])
	p.Reserve(1000)
	if err := p.Extend(rest, 1000); err != nil {
		t.Fatal(err)
	}
	if err := p.Extend(rest, 12_007); err != nil {
		t.Fatal(err)
	}
	if len(p.segs) < 3 {
		t.Fatalf("12,007 records fill %d sealed segments, want the unreserved part to cross a boundary", len(p.segs))
	}
	if slack := p.Bytes() - encodedBytes(&p); slack >= segmentBytes {
		t.Fatalf("%d bytes of slack, want under one segment", slack)
	}
	p.Reserve(len(insts))
	if err := p.Extend(rest, len(insts)); err != nil {
		t.Fatal(err)
	}
	if p.Len() != len(insts) {
		t.Fatalf("store holds %d records, want %d", p.Len(), len(insts))
	}

	for i := 30; i < 60; i++ {
		if in, err := half.Next(); err != nil || in != insts[i] {
			t.Fatalf("record %d of the outstanding cursor after growth: %+v, %v", i, in, err)
		}
	}
	if _, err := half.Next(); !errors.Is(err, ErrEnd) {
		t.Fatalf("outstanding 60-record view ran on after growth: %v", err)
	}
	expectReplay(t, "fresh cursor over the old view", short.Replay(), insts[:60])
	expectReplay(t, "full replay", p.View(len(insts)).Replay(), insts)
	expectReplay(t, "a view cut inside a segment", p.View(7777).Replay(), insts[:7777])
	if p.View(len(insts)+50).Len() != len(insts) {
		t.Fatal("a view past the end is not cut to the store")
	}
}

// TestPackedReserveAllocatesAsItFills is the allocation contract: Reserve
// allocates nothing, the store never runs more than one segment (plus
// under one record per sealed segment) ahead of the records written,
// every segment is at most segmentBytes, a segment
// sealed because it filled up wastes less than one record and the last is
// cut to its records at the reserved length, a view taken mid-fill is
// unchanged by the rest of the fill, and a store nobody reserved grows by
// whole segments.
func TestPackedReserveAllocatesAsItFills(t *testing.T) {
	const n = 15_000
	insts := walkInsts(3, n)
	var p Packed
	if avg := testing.AllocsPerRun(10, func() { p.Reserve(n) }); avg != 0 {
		t.Fatalf("Reserve made %.1f allocations, want 0", avg)
	}
	if p.Bytes() != 0 {
		t.Fatalf("a reserved, empty store holds %d bytes", p.Bytes())
	}
	var mid View
	for k := 0; k < n; k++ {
		if err := p.Append(&insts[k]); err != nil {
			t.Fatal(err)
		}
		if limit := encodedBytes(&p) + segmentBytes + uint64(len(p.segs)*maxEncoded); p.Bytes() > limit {
			t.Fatalf("after %d of %d records the store holds %d bytes, want <= %d", k+1, n, p.Bytes(), limit)
		}
		if k+1 == 5017 {
			mid = p.View(k + 1)
		}
	}
	if p.buf != nil || len(p.segs) < 3 {
		t.Fatalf("filled store: open segment %v, %d sealed, want only sealed segments, several", p.buf != nil, len(p.segs))
	}
	sum, held := 0, uint64(0)
	for i, seg := range p.segs {
		if cap(seg.data) > segmentBytes {
			t.Errorf("segment %d is %d bytes, want <= %d", i, cap(seg.data), segmentBytes)
		}
		if i < len(p.segs)-1 && cap(seg.data)-len(seg.data) >= maxEncoded {
			t.Errorf("segment %d was sealed with %d of %d bytes free", i, cap(seg.data)-len(seg.data), cap(seg.data))
		}
		sum += seg.n
		held += uint64(cap(seg.data))
	}
	if last := p.segs[len(p.segs)-1]; sum != n || !cutExactly(last) {
		t.Errorf("segments sum to %d records, the last %d bytes for %d encoded; want %d and cut", sum, cap(last.data), len(last.data), n)
	}
	if p.Bytes() != held {
		t.Errorf("filled store reports %d bytes, its segments hold %d", p.Bytes(), held)
	}
	expectReplay(t, "mid-fill view", mid.Replay(), insts[:5017])

	var q Packed
	first := p.segs[0].n
	if err := q.Extend(NewSlice(insts), first+1); err != nil {
		t.Fatal(err)
	}
	if len(q.segs) != 1 || q.open != 1 || q.Bytes() != 2*segmentBytes {
		t.Fatalf("unreserved store: %d sealed segments, %d bytes, want 2 whole segments", len(q.segs), q.Bytes())
	}
}

// TestPackedCutSegmentIsReleased: once Reserve's length is reached and
// the last segment is cut to its records, the whole segment it was cut
// from is garbage — nothing in the store, the cursor Append replays
// records through included, still reaches it.
func TestPackedCutSegmentIsReleased(t *testing.T) {
	const n = 500
	insts := walkInsts(7, n)
	var p Packed
	p.Reserve(n)
	if err := p.Extend(NewSlice(insts), n-1); err != nil {
		t.Fatal(err)
	}
	whole := weak.Make(&p.buf[0])
	if err := p.Append(&insts[n-1]); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if whole.Value() != nil {
		t.Error("the segment the store's records were cut from is still reachable")
	}
	expectReplay(t, "cut store", p.View(n).Replay(), insts)
}

// TestPackedViewsUnderConcurrentExtension: one goroutine extends a store
// across many segment boundaries — reserved and unreserved, so segments
// are both sealed full and cut — while readers replay the views it took
// earlier and compare every record with the reference. A view's bytes are
// written before it is taken and never again. Run with -race.
func TestPackedViewsUnderConcurrentExtension(t *testing.T) {
	const n, readers = 40_000, 4
	insts := walkInsts(4, n)
	views := make(chan View)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range views {
				r := v.Replay()
				for i := 0; i < v.Len(); i++ {
					if got, err := r.Next(); err != nil || got != insts[i] {
						t.Errorf("%d-record view under extension: record %d is %+v, %v; want %+v", v.Len(), i, got, err, insts[i])
						break
					}
				}
				if _, err := r.Next(); !errors.Is(err, ErrEnd) {
					t.Errorf("%d-record view under extension ran on: %v", v.Len(), err)
				}
			}
		}()
	}
	var p Packed
	src := NewSlice(insts)
	r := rand.New(rand.NewSource(4))
	func() {
		defer close(views)
		for p.Len() < n {
			to := min(n, p.Len()+1+r.Intn(3000))
			if r.Intn(2) == 0 {
				p.Reserve(to)
			}
			if err := p.Extend(src, to); err != nil {
				t.Error(err)
				return
			}
			views <- p.View(to)
		}
	}()
	wg.Wait()
	if len(p.segs) < 10 {
		t.Fatalf("the store crossed %d segment boundaries, want many", len(p.segs))
	}
}

// TestMakeRecKeepsWhatTheModelReads: for an instruction the store would
// refuse, the record still carries every field the timing model consumes.
func TestMakeRecKeepsWhatTheModelReads(t *testing.T) {
	in := isa.Inst{
		Seq: 9, PC: 0x40, Class: isa.Store, NumSrcs: 2,
		Src:     [2]isa.Reg{{Idx: 3}, {Kind: isa.FPReg, Idx: 4}},
		EffAddr: 0x1000, Target: 0xdead, Taken: true,
	}
	rec := MakeRec(&in)
	got := rec.Inst(in.Seq)
	in.Target = 0 // a store's Target is not part of the model
	if got != in {
		t.Fatalf("got %+v want %+v", got, in)
	}
}

// oracleAppend is Append as it was before it encoded in place: it tests
// losslessness by building the decoded instruction and comparing it with
// in, and encodes every record into a scratch buffer, replays it from
// there and copies it into the store. It is the oracle the in-place
// Append must match in what it accepts and in every byte it stores.
func oracleAppend(p *Packed, in *isa.Inst) error {
	if p.n == 0 {
		p.base = in.Seq
	}
	seq := p.base + uint64(p.n)
	rec := MakeRec(in)
	if rec.Inst(seq) != *in {
		if in.Seq != seq {
			return fmt.Errorf("trace: packed store at seq %d cannot take seq %d", seq, in.Seq)
		}
		return fmt.Errorf("trace: packed layout cannot hold instruction %s", in.String())
	}
	fresh := len(p.buf)-p.used < maxEncoded
	enc := p.enc
	if fresh {
		enc = coder{}
	}
	var check Replay
	var scratch [maxEncoded]byte
	check.dec, check.off, check.more = enc, 0, 1
	k := enc.encode(scratch[:], &rec)
	check.cur = scratch[:k]
	if back, _ := check.NextRec(); check.off != k || *back != rec {
		return fmt.Errorf("trace: packed encoding cannot hold instruction %s", in.String())
	}
	if fresh {
		p.openSegment()
	}
	p.used += copy(p.buf[p.used:], check.cur)
	p.open++
	p.n++
	p.enc = enc
	if p.n == p.want {
		p.seal(true)
	}
	return nil
}

// samePacked reports how two stores differ, or "" when they hold the same
// records in the same bytes — the open segment's unwritten bytes included
// — with the same bookkeeping.
func samePacked(a, b *Packed) string {
	switch {
	case a.n != b.n || a.base != b.base || a.want != b.want:
		return fmt.Sprintf("records %d/%d, base %d/%d, reserved %d/%d", a.n, b.n, a.base, b.base, a.want, b.want)
	case a.bytes != b.bytes || a.used != b.used || a.open != b.open || a.enc != b.enc:
		return fmt.Sprintf("bytes %d/%d, open segment %d/%d bytes, %d/%d records, coder %+v/%+v",
			a.bytes, b.bytes, a.used, b.used, a.open, b.open, a.enc, b.enc)
	case len(a.segs) != len(b.segs):
		return fmt.Sprintf("%d/%d sealed segments", len(a.segs), len(b.segs))
	case !bytes.Equal(a.buf, b.buf) || (a.buf == nil) != (b.buf == nil):
		return "open segments differ"
	}
	for i := range a.segs {
		if a.segs[i].n != b.segs[i].n || !bytes.Equal(a.segs[i].data, b.segs[i].data) || cap(a.segs[i].data) != cap(b.segs[i].data) {
			return fmt.Sprintf("sealed segment %d differs", i)
		}
	}
	return ""
}

// TestPackedAppendMatchesOracle: over long streams that cross segment
// boundaries, reserved and unreserved, with refused instructions offered
// between accepted ones, Append accepts and refuses exactly what the
// oracle does and leaves the store in the same state, byte for byte.
func TestPackedAppendMatchesOracle(t *testing.T) {
	breakers := []func(in *isa.Inst){
		func(in *isa.Inst) { in.Seq++ },
		func(in *isa.Inst) { in.NumSrcs = 4 },
		func(in *isa.Inst) { in.Src[1].Kind = 3 },
		func(in *isa.Inst) { in.Class, in.EffAddr, in.Target = isa.IntALU, 1, 0 },
		func(in *isa.Inst) { in.Class, in.EffAddr, in.Target = classMask+1, 0, 0 },
	}
	r := rand.New(rand.NewSource(6))
	random := make([]isa.Inst, 8000)
	for i := range random {
		random[i] = randInst(r, 40+uint64(i))
	}
	for name, insts := range map[string][]isa.Inst{"walk": walkInsts(6, 20_000), "random": random} {
		var p, q Packed
		for k := range insts {
			if k%3000 == 0 {
				to := k + r.Intn(4000)
				p.Reserve(to)
				q.Reserve(to)
			}
			if k%97 == 1 {
				bad := insts[k]
				breakers[k/97%len(breakers)](&bad)
				perr, qerr := p.Append(&bad), oracleAppend(&q, &bad)
				if perr == nil || qerr == nil {
					t.Fatalf("%s: offered %+v at %d: Append says %v, the oracle %v", name, bad, k, perr, qerr)
				}
			}
			perr, qerr := p.Append(&insts[k]), oracleAppend(&q, &insts[k])
			if perr != nil || qerr != nil {
				t.Fatalf("%s: record %d: Append says %v, the oracle %v", name, k, perr, qerr)
			}
			if diff := samePacked(&p, &q); diff != "" {
				t.Fatalf("%s: after record %d: %s", name, k, diff)
			}
		}
	}
}

// fuzzInst builds an instruction from raw fuzz arguments.
func fuzzInst(seq, pc, eff, target uint64, class, nsrc, s0k, s0i, s1k, s1i, dk, di uint8, hasDest, taken bool) isa.Inst {
	return isa.Inst{
		Seq: seq, PC: pc, Class: isa.Class(class), NumSrcs: nsrc,
		Src:     [2]isa.Reg{{Kind: isa.RegFileKind(s0k), Idx: s0i}, {Kind: isa.RegFileKind(s1k), Idx: s1i}},
		HasDest: hasDest, Dest: isa.Reg{Kind: isa.RegFileKind(dk), Idx: di},
		EffAddr: eff, Taken: taken, Target: target,
	}
}

// tailRec is the size of one instruction in a fuzz tail: class, operand
// flags, the three register bytes, the PC's distance past the previous
// record's PC + 4, and the address word (EffAddr for memory classes,
// Target for the rest), both little-endian.
const tailRec = 21

// fuzzTail spells insts as a fuzz tail (see fuzzSequence).
func fuzzTail(insts []isa.Inst) []byte {
	var b []byte
	next := uint64(0)
	for i := range insts {
		in := &insts[i]
		word := in.Target
		if in.Class.IsMem() {
			word = in.EffAddr
		}
		b = append(b, byte(in.Class), operandFlags(in), in.Src[0].Idx, in.Src[1].Idx, in.Dest.Idx)
		b = binary.LittleEndian.AppendUint64(b, in.PC-next)
		b = binary.LittleEndian.AppendUint64(b, word)
		next = in.PC + 4
	}
	return b
}

// fuzzSequence decodes the instructions tail spells and keeps the valid
// ones, numbered from seq; a partial record at the end is ignored.
func fuzzSequence(seq uint64, tail []byte) []isa.Inst {
	var out []isa.Inst
	next := uint64(0)
	for ; len(tail) >= tailRec; tail = tail[tailRec:] {
		flags := tail[1]
		in := isa.Inst{
			Seq:     seq + uint64(len(out)),
			PC:      next + binary.LittleEndian.Uint64(tail[5:13]),
			Class:   isa.Class(tail[0]),
			NumSrcs: flags & 3,
			Src:     [2]isa.Reg{{Kind: kind(flags&flagSrc0FP != 0), Idx: tail[2]}, {Kind: kind(flags&flagSrc1FP != 0), Idx: tail[3]}},
			HasDest: flags&flagHasDest != 0,
			Dest:    isa.Reg{Kind: kind(flags&flagDestFP != 0), Idx: tail[4]},
			Taken:   flags&flagTaken != 0,
		}
		if word := binary.LittleEndian.Uint64(tail[13:21]); in.Class.IsMem() {
			in.EffAddr = word
		} else {
			in.Target = word
		}
		next = in.PC + 4
		if in.Validate() == nil {
			out = append(out, in)
		}
	}
	return out
}

// checkPackedSequence: a sequence of valid instructions packs losslessly
// through Extend, or is refused at the first record the oracle refuses,
// with the records before it kept byte for byte as the oracle keeps them.
func checkPackedSequence(t *testing.T, insts []isa.Inst) {
	t.Helper()
	var p, q Packed
	err := p.Extend(NewSlice(insts), len(insts))
	k := 0
	for k < len(insts) && oracleAppend(&q, &insts[k]) == nil {
		k++
	}
	if (err == nil) != (k == len(insts)) || p.Len() != k {
		t.Fatalf("sequence of %d: Extend kept %d records and says %v; the oracle refuses record %d", len(insts), p.Len(), err, k)
	}
	if diff := samePacked(&p, &q); diff != "" {
		t.Fatalf("sequence of %d, %d kept: %s", len(insts), k, diff)
	}
	expectReplay(t, "sequence", p.View(k).Replay(), insts[:k])
}

// FuzzPackedRoundTrip: Append accepts exactly what oracleAppend accepts
// and stores the same bytes; whatever it accepts comes back identical, and
// whatever it refuses leaves the store untouched; MakeRec alone never
// loses a field the front end reads; and the sequence tail spells passes
// checkPackedSequence. Seeded with random instructions, with
// TestPackedAppendRejects' cases, and with tails of walked and random
// instructions.
func FuzzPackedRoundTrip(f *testing.F) {
	add := func(in isa.Inst, tail []byte) {
		f.Add(in.Seq, in.PC, in.EffAddr, in.Target, uint8(in.Class), in.NumSrcs,
			uint8(in.Src[0].Kind), in.Src[0].Idx, uint8(in.Src[1].Kind), in.Src[1].Idx,
			uint8(in.Dest.Kind), in.Dest.Idx, in.HasDest, in.Taken, tail)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		add(randInst(r, uint64(i)), nil)
	}
	add(fuzzInst(0, 0, 1, 1, uint8(isa.Load), 3, 2, 255, 0, 0, 1, 31, true, true), nil)
	names := slices.Sorted(maps.Keys(rejectCases))
	for _, name := range names {
		add(rejected(rejectCases[name]), nil)
	}
	random := make([]isa.Inst, 64)
	for i := range random {
		random[i] = randInst(r, uint64(i))
	}
	add(random[0], fuzzTail(walkInsts(2, 300)))
	add(random[0], fuzzTail(random))
	f.Fuzz(func(t *testing.T, seq, pc, eff, target uint64, class, nsrc, s0k, s0i, s1k, s1i, dk, di uint8, hasDest, taken bool, tail []byte) {
		in := fuzzInst(seq, pc, eff, target, class, nsrc, s0k, s0i, s1k, s1i, dk, di, hasDest, taken)
		checkPackedSequence(t, fuzzSequence(seq, tail))

		// Append and the oracle agree on a fresh store (the record opens
		// a segment) and after rejectLead (it is encoded in place).
		for _, lead := range [][]isa.Inst{nil, {rejectLead}} {
			var p, q Packed
			for i := range lead {
				if p.Append(&lead[i]) != nil || oracleAppend(&q, &lead[i]) != nil {
					t.Fatal("lead record refused")
				}
			}
			perr, qerr := p.Append(&in), oracleAppend(&q, &in)
			if (perr == nil) != (qerr == nil) {
				t.Fatalf("after %d lead records, %+v: Append says %v, the oracle %v", len(lead), in, perr, qerr)
			}
			if diff := samePacked(&p, &q); diff != "" {
				t.Fatalf("after %d lead records, %+v: %s", len(lead), in, diff)
			}
		}

		rec := MakeRec(&in)
		back := rec.Inst(in.Seq)
		if back.PC != in.PC || back.Class != in.Class || back.Taken != in.Taken || back.HasDest != in.HasDest ||
			back.Src[0].Idx != in.Src[0].Idx || back.Src[1].Idx != in.Src[1].Idx || back.Dest.Idx != in.Dest.Idx {
			t.Fatalf("MakeRec lost a field: %+v -> %+v", in, back)
		}
		if in.Class.IsMem() && back.EffAddr != in.EffAddr || in.Class.IsBranch() && back.Target != in.Target {
			t.Fatalf("MakeRec lost the class's address word: %+v -> %+v", in, back)
		}
		if rec.WritesReg() != (in.HasDest && in.Dest.Idx != isa.ZeroReg) {
			t.Fatalf("WritesReg disagrees for %+v", in)
		}

		var p Packed
		if err := p.Append(&in); err != nil {
			if p.Len() != 0 {
				t.Fatalf("refused append left %d records", p.Len())
			}
			return
		}
		next := in
		next.Seq++
		if err := p.Append(&next); err != nil {
			t.Fatalf("successor of an accepted instruction refused: %v", err)
		}
		replay := p.View(2).Replay()
		for _, want := range []isa.Inst{in, next} {
			if got, err := replay.Next(); err != nil || got != want {
				t.Fatalf("round trip: got %+v, %v; want %+v", got, err, want)
			}
		}
		if _, err := replay.Next(); !errors.Is(err, ErrEnd) {
			t.Fatalf("replay past the view: %v", err)
		}
	})
}
