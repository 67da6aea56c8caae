// Command tracegen generates a synthetic SPEC2000-like instruction stream
// from any workload spec and prints its measured profile and a SHA-256
// digest of the instructions it generated.
//
// -prog takes a full workload spec string: a profile name ("swim"), a
// seeded stream ("gcc@7"), or a synthetic spec ("synth(ilp=8,ws=4M)",
// "synth-random@3" — see docs/workloads.md for the grammar). An explicit
// ":insts" budget in the spec overrides -n.
//
// The digest covers every field of every instruction, in a fixed
// little-endian layout, so two spellings of one workload generate the same
// stream exactly when they print the same digest.
//
// Usage:
//
//	tracegen -prog swim -n 100000                 # profile and digest
//	tracegen -prog 'synth(ilp=8,ws=4M)@2' -n 50000
//	tracegen -prog swim -n 20 -dump               # print instructions
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/isa"
	"repro/internal/predict"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	prog := flag.String("prog", "", "workload spec: profile name, prog[:insts][@seed], or a synth spec (see -list)")
	n := flag.Uint64("n", 100_000, "number of instructions (overridden by an explicit :insts in -prog)")
	dump := flag.Bool("dump", false, "print instructions to stdout")
	list := flag.Bool("list", false, "list workload profiles")
	flag.Parse()

	switch {
	case *list:
		fmt.Println("INT:", workload.SuiteNames(workload.ClassInt))
		fmt.Println("FP: ", workload.SuiteNames(workload.ClassFP))
		fmt.Println("synthetic: synth(k=v,...) parameterized specs and distribution families (see docs/workloads.md)")
	case *prog != "":
		if err := generate(*prog, *n, *dump); err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func generate(prog string, n uint64, dump bool) error {
	spec, err := workload.ParseSpec(prog)
	if err != nil {
		return err
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	if len(spec.Streams) != 1 {
		return fmt.Errorf("tracegen generates one stream at a time; %q names %d (the simulator mixes streams at run time)", prog, len(spec.Streams))
	}
	st := spec.Streams[0]
	if st.Insts != 0 {
		n = st.Insts
	}
	gen, err := workload.NewStream(st.Program, st.Seed)
	if err != nil {
		return err
	}
	stream := trace.NewLimit(gen, n)

	// The analytical twin's summarizer is the single measurement pass:
	// tracegen prints the same profile-derived stats the predictor scores
	// from.
	sum := predict.NewSummarizer(st.Program, st.Seed)
	digest := sha256.New()
	var buf []byte
	for {
		in, err := stream.Next()
		if errors.Is(err, trace.ErrEnd) {
			break
		}
		if err != nil {
			return err
		}
		sum.Observe(&in)
		buf = appendInst(buf[:0], &in)
		digest.Write(buf)
		if dump {
			fmt.Println(in.String())
		}
	}
	printProfile(os.Stderr, spec.Name(), sum.Finish())
	fmt.Fprintf(os.Stderr, "sha256: %x\n", digest.Sum(nil))
	return nil
}

// appendInst appends every field of in to b in declaration order: the
// 64-bit words little-endian, the rest one byte each.
func appendInst(b []byte, in *isa.Inst) []byte {
	b = binary.LittleEndian.AppendUint64(b, in.Seq)
	b = binary.LittleEndian.AppendUint64(b, in.PC)
	b = append(b, byte(in.Class), in.NumSrcs,
		byte(in.Src[0].Kind), in.Src[0].Idx, byte(in.Src[1].Kind), in.Src[1].Idx,
		boolByte(in.HasDest), byte(in.Dest.Kind), in.Dest.Idx)
	b = binary.LittleEndian.AppendUint64(b, in.EffAddr)
	b = append(b, boolByte(in.Taken))
	return binary.LittleEndian.AppendUint64(b, in.Target)
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// printProfile renders the measured character of a stream from its twin
// profile: instruction mix, branch behaviour (including the modelled
// mispredict rate), dataflow ILP, and memory working set.
func printProfile(w *os.File, name string, p *predict.Profile) {
	if p.Insts == 0 {
		fmt.Fprintf(w, "%s: empty trace\n", name)
		return
	}
	fmt.Fprintf(w, "%s: %d instructions\n", name, p.Insts)
	fmt.Fprintf(w, "mix:")
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		if p.Classes[c] > 0 {
			fmt.Fprintf(w, " %s=%.1f%%", c, 100*float64(p.Classes[c])/float64(p.Insts))
		}
	}
	fmt.Fprintln(w)
	if p.Branches > 0 {
		fmt.Fprintf(w, "branches: %.1f%% of stream, %.1f%% taken, %.1f%% mispredicted (hybrid predictor model)\n",
			100*float64(p.Branches)/float64(p.Insts), 100*float64(p.Taken)/float64(p.Branches),
			100*p.MispredictRate())
	}
	fmt.Fprintf(w, "dataflow: critical path %d cycles (ILP limit %.1f IPC)\n",
		p.CritPath, float64(p.Insts)/float64(p.CritPath))
	if p.Lines64 > 0 {
		fmt.Fprintf(w, "working set: %d distinct 64B lines (%s touched), address span %s\n",
			p.Lines64, fmtBytes(p.Lines64*64), fmtBytes(p.AddrHi-p.AddrLo+1))
	}
}

// fmtBytes renders a byte count with a binary suffix.
func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fG", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fM", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fK", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
