package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"

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

// TestPackedRandomRoundTrip: the codec tests' random instructions survive
// the packed layout field for field, Seq included, from a non-zero base.
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

// TestPackedAppendRejects: what the layout cannot hold is refused, not
// silently dropped, and a refusal leaves the store as it was.
func TestPackedAppendRejects(t *testing.T) {
	ok := isa.Inst{Seq: 5, Class: isa.Load, HasDest: true, Dest: isa.Reg{Idx: 1}, EffAddr: 64}
	cases := map[string]func(in *isa.Inst){
		"gap in seq":            func(in *isa.Inst) { in.Seq = 7 },
		"repeated seq":          func(in *isa.Inst) { in.Seq = 5 },
		"load with target":      func(in *isa.Inst) { in.Target = 8 },
		"alu with effaddr":      func(in *isa.Inst) { in.Class = isa.IntALU },
		"branch with effaddr":   func(in *isa.Inst) { in.Class, in.HasDest, in.Dest = isa.Branch, false, isa.Reg{} },
		"three sources":         func(in *isa.Inst) { in.NumSrcs = 4 },
		"unknown register set":  func(in *isa.Inst) { in.Dest.Kind = 2 },
		"class past the header": func(in *isa.Inst) { in.Class, in.EffAddr = classMask+1, 0 },
	}
	for name, mutate := range cases {
		var p Packed
		if err := p.Append(&ok); err != nil {
			t.Fatal(err)
		}
		before := p.Bytes()
		in := ok
		in.Seq = 6
		mutate(&in)
		if err := p.Append(&in); err == nil {
			t.Errorf("%s: accepted %+v", name, in)
		}
		if p.Len() != 1 || p.Bytes() != before {
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

// fuzzInst builds an instruction from raw fuzz arguments.
func fuzzInst(seq, pc, eff, target uint64, class, nsrc, s0k, s0i, s1k, s1i, dk, di uint8, hasDest, taken bool) isa.Inst {
	return isa.Inst{
		Seq: seq, PC: pc, Class: isa.Class(class), NumSrcs: nsrc,
		Src:     [2]isa.Reg{{Kind: isa.RegFileKind(s0k), Idx: s0i}, {Kind: isa.RegFileKind(s1k), Idx: s1i}},
		HasDest: hasDest, Dest: isa.Reg{Kind: isa.RegFileKind(dk), Idx: di},
		EffAddr: eff, Taken: taken, Target: target,
	}
}

// FuzzPackedRoundTrip: whatever Append accepts comes back identical, and
// whatever it refuses leaves the store untouched; MakeRec alone never
// loses a field the front end reads.
func FuzzPackedRoundTrip(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		in := randInst(r, uint64(i))
		f.Add(in.Seq, in.PC, in.EffAddr, in.Target, uint8(in.Class), in.NumSrcs,
			uint8(in.Src[0].Kind), in.Src[0].Idx, uint8(in.Src[1].Kind), in.Src[1].Idx,
			uint8(in.Dest.Kind), in.Dest.Idx, in.HasDest, in.Taken)
	}
	f.Add(uint64(0), uint64(0), uint64(1), uint64(1), uint8(isa.Load), uint8(3), uint8(2), uint8(255), uint8(0), uint8(0), uint8(1), uint8(31), true, true)
	f.Fuzz(func(t *testing.T, seq, pc, eff, target uint64, class, nsrc, s0k, s0i, s1k, s1i, dk, di uint8, hasDest, taken bool) {
		in := fuzzInst(seq, pc, eff, target, class, nsrc, s0k, s0i, s1k, s1i, dk, di, hasDest, taken)

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

// FuzzTraceReader: the binary decoder — fed by trace files — never
// panics, yields only valid instructions, fails for good once it has
// failed, and whatever it decodes re-encodes to a stream that decodes
// identically and packs or is refused cleanly.
func FuzzTraceReader(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	var valid bytes.Buffer
	w, _ := NewWriter(&valid)
	for i := 0; i < 40; i++ {
		in := randInst(r, uint64(i))
		if err := w.Write(&in); err != nil {
			f.Fatal(err)
		}
	}
	w.Flush()
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-3])                                            // truncated record
	f.Add(valid.Bytes()[:16])                                                       // header only
	f.Add([]byte("XXXX0123456789ab"))                                               // bad magic
	f.Add(append([]byte(magic), 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0))          // bad version
	f.Add(append(append([]byte(nil), valid.Bytes()[:16]...), byte(isa.NumClasses))) // short + bad class
	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var insts []isa.Inst
		var last error
		for {
			in, err := rd.Next()
			if err != nil {
				last = err
				break
			}
			if verr := in.Validate(); verr != nil {
				t.Fatalf("reader yielded an invalid instruction: %v", verr)
			}
			insts = append(insts, in)
		}
		if _, err := rd.Next(); err == nil || err.Error() != last.Error() {
			t.Fatalf("reader recovered after %v: %v", last, err)
		}

		var buf bytes.Buffer
		w, _ := NewWriter(&buf)
		for i := range insts {
			if err := w.Write(&insts[i]); err != nil {
				t.Fatalf("decoded instruction does not re-encode: %v", err)
			}
		}
		w.Flush()
		rd2, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Collect(rd2, 0)
		if err != nil || len(again) != len(insts) {
			t.Fatalf("re-decode: %d of %d instructions, %v", len(again), len(insts), err)
		}
		for i := range insts {
			if again[i] != insts[i] {
				t.Fatalf("instruction %d changed across encode/decode: %+v -> %+v", i, insts[i], again[i])
			}
		}

		var p Packed
		if err := p.Extend(NewSlice(insts), len(insts)); err != nil {
			return // a hostile trace may carry what the layout refuses
		}
		packed, _ := Collect(p.View(p.Len()).Replay(), 0)
		for i := range insts {
			if packed[i] != insts[i] {
				t.Fatalf("instruction %d changed in the packed store: %+v -> %+v", i, insts[i], packed[i])
			}
		}
	})
}
