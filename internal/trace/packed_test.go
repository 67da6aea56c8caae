package trace

import (
	"bytes"
	"errors"
	"math/rand"
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

// TestPackedRandomRoundTrip: the codec tests' random instructions survive
// the packed layout field for field, Seq included, from a non-zero base.
func TestPackedRandomRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	insts := make([]isa.Inst, 3*chunkRecs/2) // crosses a chunk boundary
	for i := range insts {
		insts[i] = randInst(r, 1000+uint64(i))
	}
	got, err := Collect(packAll(t, insts).View(len(insts)).Replay(), 0)
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
		"gap in seq":           func(in *isa.Inst) { in.Seq = 7 },
		"repeated seq":         func(in *isa.Inst) { in.Seq = 5 },
		"load with target":     func(in *isa.Inst) { in.Target = 8 },
		"alu with effaddr":     func(in *isa.Inst) { in.Class = isa.IntALU },
		"branch with effaddr":  func(in *isa.Inst) { in.Class, in.HasDest, in.Dest = isa.Branch, false, isa.Reg{} },
		"three sources":        func(in *isa.Inst) { in.NumSrcs = 4 },
		"unknown register set": func(in *isa.Inst) { in.Dest.Kind = 2 },
	}
	for name, mutate := range cases {
		var p Packed
		if err := p.Append(&ok); err != nil {
			t.Fatal(err)
		}
		in := ok
		in.Seq = 6
		mutate(&in)
		if err := p.Append(&in); err == nil {
			t.Errorf("%s: accepted %+v", name, in)
		}
		if p.Len() != 1 {
			t.Errorf("%s: refused append changed the store (len %d)", name, p.Len())
		}
	}
}

// TestPackedExtension: a view taken before the store grows replays the
// same records afterwards and still ends where it did — through segments
// cut to a reserved length and through Append's whole chunks — and the
// store never holds more than one chunk of slack.
func TestPackedExtension(t *testing.T) {
	insts := mkInsts(4*chunkRecs + 100)
	var p Packed
	p.Reserve(100)
	if err := p.Extend(NewSlice(insts), 100); err != nil {
		t.Fatal(err)
	}
	if p.Bytes() != 100*uint64(RecBytes) {
		t.Fatalf("reserved store holds %d bytes, want exactly %d", p.Bytes(), 100*RecBytes)
	}
	short := p.View(60)
	half := short.Replay()
	for i := 0; i < 30; i++ {
		if in, err := half.Next(); err != nil || in != insts[i] {
			t.Fatalf("record %d before growth: %+v, %v", i, in, err)
		}
	}

	// Grow three ways: reserve while the first segment is full, append
	// past all reserved room (chunks), reserve again.
	rest := NewSlice(insts[100:])
	p.Reserve(1000)
	if err := p.Extend(rest, 1000); err != nil {
		t.Fatal(err)
	}
	if err := p.Extend(rest, 1000+2*chunkRecs+7); err != nil {
		t.Fatal(err)
	}
	if slack := p.Bytes() - uint64(p.Len()*RecBytes); slack >= chunkRecs*uint64(RecBytes) {
		t.Fatalf("%d bytes of slack, want under one chunk", slack)
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
	if got, _ := Collect(short.Replay(), 0); len(got) != 60 {
		t.Fatalf("fresh cursor over the old view yields %d records, want 60", len(got))
	}
	got, err := Collect(p.View(len(insts)).Replay(), 0)
	if err != nil || len(got) != len(insts) {
		t.Fatalf("full replay: %d records, %v", len(got), err)
	}
	for i := range insts {
		if got[i] != insts[i] {
			t.Fatalf("record %d after growth: got %+v want %+v", i, got[i], insts[i])
		}
	}
	if p.View(len(insts)+50).Len() != len(insts) {
		t.Fatal("a view past the end is not cut to the store")
	}
}

// TestPackedReserveAllocatesAsItFills is the allocation contract: Reserve
// allocates nothing, the store never runs more than one chunk ahead of the
// records written, every segment is at most a chunk and the last is cut to
// the reserved length, a view taken mid-fill is unchanged by the rest of
// the fill, and a store nobody reserved grows by whole chunks.
func TestPackedReserveAllocatesAsItFills(t *testing.T) {
	const n = 2*chunkRecs + 1000
	insts := mkInsts(n)
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
		if limit := uint64(RecBytes * min(n, k+1+chunkRecs)); p.Bytes() > limit {
			t.Fatalf("after %d of %d records the store holds %d bytes, want <= %d", k+1, n, p.Bytes(), limit)
		}
		if k+1 == chunkRecs+17 {
			mid = p.View(k + 1)
		}
	}
	sum := 0
	for i, seg := range p.segs {
		if len(seg) > chunkRecs {
			t.Errorf("segment %d holds %d records, want <= %d", i, len(seg), chunkRecs)
		}
		sum += len(seg)
	}
	if last := p.segs[len(p.segs)-1]; sum != n || len(last) != n%chunkRecs {
		t.Errorf("segments sum to %d records with the last at %d, want %d and %d", sum, len(last), n, n%chunkRecs)
	}
	if p.Bytes() != uint64(n*RecBytes) {
		t.Errorf("filled store holds %d bytes, want exactly %d", p.Bytes(), n*RecBytes)
	}
	got, err := Collect(mid.Replay(), 0)
	if err != nil || len(got) != chunkRecs+17 {
		t.Fatalf("mid-fill view: %d records, %v", len(got), err)
	}
	for i := range got {
		if got[i] != insts[i] {
			t.Fatalf("mid-fill view record %d changed: got %+v want %+v", i, got[i], insts[i])
		}
	}

	var q Packed
	if err := q.Extend(NewSlice(insts), chunkRecs+1); err != nil {
		t.Fatal(err)
	}
	if len(q.segs) != 2 || len(q.segs[1]) != chunkRecs || q.Bytes() != 2*chunkRecs*uint64(RecBytes) {
		t.Fatalf("unreserved store: %d segments, %d bytes, want 2 whole chunks", len(q.segs), q.Bytes())
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
