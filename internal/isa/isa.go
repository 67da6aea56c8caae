// Package isa defines the abstract instruction set executed by the
// simulator: operation classes, register namespaces and operation latencies.
//
// The simulator is trace-driven, so the ISA carries only what the
// microarchitecture needs to decide timing: which functional unit executes
// an operation, how long it takes, whether it is pipelined, which register
// namespace (integer or floating point) each operand lives in, and whether
// the instruction touches memory or redirects control flow.
//
// The register model follows the paper's enhanced-SimpleScalar setup: 32
// architectural integer registers and 32 architectural FP registers, with
// register 31 of each namespace hardwired to zero (reads never create a
// dependence, writes are discarded), matching the Alpha convention of the
// binaries used in the paper.
package isa

import "fmt"

// Class identifies the kind of operation an instruction performs. The class
// determines which functional unit executes it and its latency.
type Class uint8

// Operation classes. IntALU through FPDiv are computational; Load and Store
// access memory through the centralized data cache; Branch redirects fetch.
const (
	IntALU     Class = iota // integer add/sub/logic/shift/compare, 1 cycle
	IntMult                 // integer multiply, 3 cycles pipelined
	IntDiv                  // integer divide, 20 cycles non-pipelined
	FPAdd                   // FP add/sub/convert/compare, 2 cycles pipelined
	FPMult                  // FP multiply, 4 cycles pipelined
	FPDiv                   // FP divide, 12 cycles non-pipelined
	Load                    // memory read (address computed on an integer ALU)
	Store                   // memory write (address computed on an integer ALU)
	Branch                  // conditional or unconditional control transfer
	NumClasses              // number of classes; keep last
)

var classNames = [NumClasses]string{
	"IntALU", "IntMult", "IntDiv", "FPAdd", "FPMult", "FPDiv",
	"Load", "Store", "Branch",
}

// String returns the mnemonic name of the class.
func (c Class) String() string {
	if c < NumClasses {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Valid reports whether c is a defined operation class.
func (c Class) Valid() bool { return c < NumClasses }

// IsFP reports whether the operation executes on the floating-point
// datapath. FP loads/stores are tagged through their destination/source
// register namespace, not the class: address generation is integer work.
func (c Class) IsFP() bool { return c == FPAdd || c == FPMult || c == FPDiv }

// IsMem reports whether the instruction accesses data memory.
func (c Class) IsMem() bool { return c == Load || c == Store }

// IsBranch reports whether the instruction may redirect control flow.
func (c Class) IsBranch() bool { return c == Branch }

// Latency returns the execution latency in cycles for the class, per the
// paper's Table 2 (loads report the FU/AGU portion only; cache access time
// is added by the memory system).
func (c Class) Latency() int {
	switch c {
	case IntALU, Load, Store, Branch:
		return 1
	case IntMult:
		return 3
	case IntDiv:
		return 20
	case FPAdd:
		return 2
	case FPMult:
		return 4
	case FPDiv:
		return 12
	}
	return 1
}

// Pipelined reports whether a functional unit executing this class can
// accept a new operation every cycle. Integer and FP divides are
// non-pipelined per Table 2.
func (c Class) Pipelined() bool { return c != IntDiv && c != FPDiv }

// RegFileKind selects one of the two architectural register namespaces.
type RegFileKind uint8

const (
	IntReg RegFileKind = iota // integer register namespace
	FPReg                     // floating-point register namespace
)

// String returns "INT" or "FP".
func (k RegFileKind) String() string {
	if k == IntReg {
		return "INT"
	}
	return "FP"
}

// Architectural register file geometry.
const (
	// NumArchRegs is the number of architectural registers per namespace.
	NumArchRegs = 32
	// ZeroReg is the hardwired-zero register index in each namespace;
	// reads from it are always ready and writes to it are dropped.
	ZeroReg = 31
)

// Reg names one architectural register: a namespace and an index.
// The zero value is integer register 0.
type Reg struct {
	Kind RegFileKind
	Idx  uint8
}

// IsZero reports whether r is the hardwired zero register of its namespace.
func (r Reg) IsZero() bool { return r.Idx == ZeroReg }

// String returns e.g. "r7" for integer registers and "f12" for FP ones.
func (r Reg) String() string {
	if r.Kind == IntReg {
		return fmt.Sprintf("r%d", r.Idx)
	}
	return fmt.Sprintf("f%d", r.Idx)
}

// Valid reports whether the register index is within the architectural file.
func (r Reg) Valid() bool { return r.Idx < NumArchRegs }

// Inst is one dynamic instruction in a trace. Operand slots that are unused
// hold the zero register of the relevant namespace (so they never create
// dependences). The paper's machine dispatches at most 2 source operands and
// 1 destination per instruction, matching the Alpha ISA.
type Inst struct {
	// Seq is the dynamic sequence number, assigned by the trace source;
	// it is unique and monotonically increasing within a trace.
	Seq uint64
	// PC is the instruction address, used by the branch predictor and the
	// instruction cache model.
	PC uint64
	// Class selects the functional unit and latency.
	Class Class
	// NumSrcs is how many of Src are meaningful (0, 1 or 2).
	NumSrcs uint8
	// Src holds the source architectural registers.
	Src [2]Reg
	// HasDest reports whether Dest is meaningful.
	HasDest bool
	// Dest is the destination architectural register.
	Dest Reg
	// EffAddr is the effective address for loads and stores.
	EffAddr uint64
	// Taken is the actual outcome for branches.
	Taken bool
	// Target is the branch target address (meaningful when Taken).
	Target uint64
}

// SrcRegs returns the meaningful source registers, excluding hardwired
// zeros (which never create dependences). The returned slice aliases a
// fixed-size backing array; it is valid until the next call with the same
// receiver copy and must not be appended to.
func (in *Inst) SrcRegs(buf *[2]Reg) []Reg {
	n := 0
	for i := uint8(0); i < in.NumSrcs; i++ {
		if in.Src[i].IsZero() {
			continue
		}
		buf[n] = in.Src[i]
		n++
	}
	return buf[:n]
}

// WritesReg reports whether the instruction produces a register value that
// later instructions can consume (i.e. has a non-zero destination).
func (in *Inst) WritesReg() bool { return in.HasDest && !in.Dest.IsZero() }

// String formats the instruction for debugging.
func (in *Inst) String() string {
	s := fmt.Sprintf("#%d %s", in.Seq, in.Class)
	if in.HasDest {
		s += " " + in.Dest.String() + " ="
	}
	for i := 0; i < int(in.NumSrcs) && i < len(in.Src); i++ { // NumSrcs may be invalid
		s += " " + in.Src[i].String()
	}
	if in.Class.IsMem() {
		s += fmt.Sprintf(" @%#x", in.EffAddr)
	}
	if in.Class.IsBranch() {
		if in.Taken {
			s += fmt.Sprintf(" taken->%#x", in.Target)
		} else {
			s += " not-taken"
		}
	}
	return s
}

// Validate checks structural well-formedness of the instruction and returns
// a descriptive error for the first violation found.
func (in *Inst) Validate() error {
	if !in.Class.Valid() {
		return fmt.Errorf("inst %d: invalid class %d", in.Seq, uint8(in.Class))
	}
	if in.NumSrcs > 2 {
		return fmt.Errorf("inst %d: %d sources (max 2)", in.Seq, in.NumSrcs)
	}
	for i := uint8(0); i < in.NumSrcs; i++ {
		if !in.Src[i].Valid() {
			return fmt.Errorf("inst %d: source %d register %v out of range", in.Seq, i, in.Src[i])
		}
	}
	if in.HasDest && !in.Dest.Valid() {
		return fmt.Errorf("inst %d: destination register %v out of range", in.Seq, in.Dest)
	}
	if in.Class == Store && in.HasDest {
		return fmt.Errorf("inst %d: store with destination register", in.Seq)
	}
	if in.Class == Branch && in.HasDest {
		return fmt.Errorf("inst %d: branch with destination register", in.Seq)
	}
	return nil
}
