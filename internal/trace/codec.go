package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/isa"
)

// Binary trace format. Little-endian throughout.
//
//	header:  magic "RCMT" | u16 version | u16 reserved | u64 count
//	record:  u8 class | u8 flags | u8 src0 | u8 src1 | u8 dest |
//	         u64 seq | u64 pc | [u64 effaddr] | [u64 target]
//
// flags bit layout: bits 0-1 numSrcs, bit 2 hasDest, bit 3 taken,
// bit 4 src0 is FP, bit 5 src1 is FP, bit 6 dest is FP, bit 7 has mem/target
// payload. Register bytes hold the architectural index.
const (
	magic   = "RCMT"
	version = 1
)

const (
	flagHasDest = 1 << 2
	flagTaken   = 1 << 3
	flagSrc0FP  = 1 << 4
	flagSrc1FP  = 1 << 5
	flagDestFP  = 1 << 6
	flagPayload = 1 << 7
)

// Writer encodes instructions into the binary trace format.
type Writer struct {
	w     *bufio.Writer
	count uint64
	// countPos is unknown for non-seekable sinks, so the count lives in
	// the trailer instead: the header count is a hint that readers must
	// not trust; the stream simply ends at EOF.
}

// NewWriter returns a Writer emitting to w. Call Flush when done.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, err
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint16(hdr[0:2], version)
	// reserved = 0, count = 0 (stream ends at EOF).
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Write encodes one instruction.
func (tw *Writer) Write(in *isa.Inst) error {
	if err := in.Validate(); err != nil {
		return err
	}
	var rec [5 + 8 + 8 + 16]byte
	flags := operandFlags(in)
	payload := in.Class.IsMem() || in.Class.IsBranch()
	if payload {
		flags |= flagPayload
	}
	rec[0] = byte(in.Class)
	rec[1] = flags
	rec[2] = in.Src[0].Idx
	rec[3] = in.Src[1].Idx
	rec[4] = in.Dest.Idx
	binary.LittleEndian.PutUint64(rec[5:13], in.Seq)
	binary.LittleEndian.PutUint64(rec[13:21], in.PC)
	n := 21
	if payload {
		binary.LittleEndian.PutUint64(rec[21:29], in.EffAddr)
		binary.LittleEndian.PutUint64(rec[29:37], in.Target)
		n = 37
	}
	if _, err := tw.w.Write(rec[:n]); err != nil {
		return err
	}
	tw.count++
	return nil
}

// Count returns the number of instructions written so far.
func (tw *Writer) Count() uint64 { return tw.count }

// Flush writes any buffered data to the underlying writer.
func (tw *Writer) Flush() error { return tw.w.Flush() }

// Reader decodes a binary trace as a Stream.
type Reader struct {
	r   *bufio.Reader
	err error
}

// NewReader validates the header and returns a Stream over r.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(hdr[0:4]) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != version {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	return &Reader{r: br}, nil
}

// Next implements Stream.
func (tr *Reader) Next() (isa.Inst, error) {
	if tr.err != nil {
		return isa.Inst{}, tr.err
	}
	var fixed [21]byte
	if _, err := io.ReadFull(tr.r, fixed[:]); err != nil {
		if errors.Is(err, io.EOF) {
			tr.err = ErrEnd
			return isa.Inst{}, ErrEnd
		}
		tr.err = fmt.Errorf("trace: truncated record: %w", err)
		return isa.Inst{}, tr.err
	}
	var in isa.Inst
	in.Class = isa.Class(fixed[0])
	flags := fixed[1]
	in.NumSrcs = flags & 3
	in.HasDest = flags&flagHasDest != 0
	in.Taken = flags&flagTaken != 0
	in.Src[0] = isa.Reg{Kind: kind(flags&flagSrc0FP != 0), Idx: fixed[2]}
	in.Src[1] = isa.Reg{Kind: kind(flags&flagSrc1FP != 0), Idx: fixed[3]}
	in.Dest = isa.Reg{Kind: kind(flags&flagDestFP != 0), Idx: fixed[4]}
	in.Seq = binary.LittleEndian.Uint64(fixed[5:13])
	in.PC = binary.LittleEndian.Uint64(fixed[13:21])
	if flags&flagPayload != 0 {
		var tail [16]byte
		if _, err := io.ReadFull(tr.r, tail[:]); err != nil {
			tr.err = fmt.Errorf("trace: truncated payload: %w", err)
			return isa.Inst{}, tr.err
		}
		in.EffAddr = binary.LittleEndian.Uint64(tail[0:8])
		in.Target = binary.LittleEndian.Uint64(tail[8:16])
	}
	if err := in.Validate(); err != nil {
		tr.err = err
		return isa.Inst{}, err
	}
	// The writer emits the payload exactly for memory and branch classes;
	// anything else is not a trace this codec wrote, and accepting it
	// would decode address words that re-encoding drops.
	if (flags&flagPayload != 0) != (in.Class.IsMem() || in.Class.IsBranch()) {
		tr.err = fmt.Errorf("trace: inst %d: payload flag does not match class %s", in.Seq, in.Class)
		return isa.Inst{}, tr.err
	}
	return in, nil
}

// operandFlags encodes everything in the flags byte except flagPayload.
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

func kind(fp bool) isa.RegFileKind {
	if fp {
		return isa.FPReg
	}
	return isa.IntReg
}
