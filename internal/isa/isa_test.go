package isa

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestRegisterProperties(t *testing.T) {
	if NumRegs != 21 {
		t.Fatalf("NumRegs = %d; register file layout changed", NumRegs)
	}
	count := 0
	for r := Reg(0); r < NumRegs; r++ {
		if CalleeSave(r) {
			count++
		}
	}
	if count != NumCalleeSave {
		t.Fatalf("callee-save count %d != NumCalleeSave %d", count, NumCalleeSave)
	}
	for _, r := range []Reg{SP, FP, LR, RV, WL, T0, T7} {
		if CalleeSave(r) {
			t.Errorf("%v must not be callee-save", r)
		}
	}
	if SP.String() != "sp" || R0.String() != "r0" || T7.String() != "t7" {
		t.Fatal("register names wrong")
	}
}

func TestInstrStrings(t *testing.T) {
	cases := map[string]Instr{
		"const t0, 7":      {Op: Const, Rd: T0, Imm: 7},
		"load r1, [fp-3]":  {Op: Load, Rd: R1, Ra: FP, Imm: -3},
		"store [sp+2], r0": {Op: Store, Ra: SP, Imm: 2, Rb: R0},
		"jmpreg lr":        {Op: JmpReg, Ra: LR},
		"call 5 <f>":       {Op: Call, Imm: 5, Sym: "f"},
		"beq r0, r1, 9":    {Op: Beq, Ra: R0, Rb: R1, Imm: 9},
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	for op := Op(0); op < Op(NumOps); op++ {
		if strings.HasPrefix(op.String(), "op(") {
			t.Errorf("opcode %d has no name", op)
		}
	}
}

func TestBuiltinEncoding(t *testing.T) {
	for b := Builtin(1); b < NumBuiltins; b++ {
		imm := BuiltinTarget(b)
		if imm >= 0 {
			t.Fatalf("builtin target %d not negative", imm)
		}
		got, ok := BuiltinFromTarget(imm)
		if !ok || got != b {
			t.Fatalf("round trip %v -> %d -> %v", b, imm, got)
		}
		name := b.String()
		byName, ok := BuiltinByName(name)
		if !ok || byName != b {
			t.Fatalf("name round trip %v via %q", b, name)
		}
	}
	if _, ok := BuiltinFromTarget(10); ok {
		t.Fatal("positive target decoded as builtin")
	}
	if _, ok := BuiltinFromTarget(-10_000); ok {
		t.Fatal("out-of-range target decoded as builtin")
	}
	if _, ok := BuiltinByName("no_such_builtin"); ok {
		t.Fatal("unknown name resolved")
	}
}

func TestDescForLookup(t *testing.T) {
	p := &Program{
		Descs: []*Desc{
			{Name: "a", Entry: 0, End: 10},
			{Name: "b", Entry: 10, End: 25},
			{Name: "c", Entry: 25, End: 26},
		},
	}
	cases := map[int64]string{0: "a", 9: "a", 10: "b", 24: "b", 25: "c"}
	for pc, want := range cases {
		d := p.DescFor(pc)
		if d == nil || d.Name != want {
			t.Errorf("DescFor(%d) = %v, want %s", pc, d, want)
		}
	}
	for _, pc := range []int64{-1, 26, 1000} {
		if p.DescFor(pc) != nil {
			t.Errorf("DescFor(%d) found a descriptor", pc)
		}
	}
}

// TestDescForProperty cross-checks the binary search against a linear scan.
func TestDescForProperty(t *testing.T) {
	p := &Program{}
	pos := int64(0)
	for i := 0; i < 40; i++ {
		end := pos + int64(3+i%7)
		p.Descs = append(p.Descs, &Desc{Entry: pos, End: end})
		pos = end
	}
	f := func(pcRaw uint16) bool {
		pc := int64(pcRaw) % (pos + 10)
		got := p.DescFor(pc)
		var want *Desc
		for _, d := range p.Descs {
			if pc >= d.Entry && pc < d.End {
				want = d
				break
			}
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIsFork(t *testing.T) {
	d := &Desc{ForkPoints: []int64{5, 9}}
	if !d.IsFork(5) || !d.IsFork(9) || d.IsFork(6) {
		t.Fatal("IsFork wrong")
	}
}

func TestCostModels(t *testing.T) {
	models := CostModels()
	if len(models) != 4 {
		t.Fatalf("%d cost models", len(models))
	}
	names := map[string]bool{}
	for _, m := range models {
		if names[m.Name] {
			t.Fatalf("duplicate model %s", m.Name)
		}
		names[m.Name] = true
		if m.OpCost[Nop] != 0 {
			t.Errorf("%s: nop must be free", m.Name)
		}
		for op := 1; op < NumOps; op++ {
			if m.OpCost[op] <= 0 {
				t.Errorf("%s: op %v has non-positive cost", m.Name, Op(op))
			}
		}
		for b := Builtin(1); b < NumBuiltins; b++ {
			if m.BuiltinCost[b] <= 0 {
				t.Errorf("%s: builtin %v has no cost", m.Name, b)
			}
		}
		if CostModelByName(m.Name) == nil {
			t.Errorf("CostModelByName(%s) = nil", m.Name)
		}
	}
	if !models[0].RegWindowSave {
		t.Error("sparc must model register windows")
	}
	if models[2].OmitFPRefund == 0 || models[3].OmitFPRefund == 0 {
		t.Error("mips/alpha must model FP omission")
	}
	if CostModelByName("vax") != nil {
		t.Error("unknown CPU resolved")
	}
}

// TestCostModelByName checks the name lookup against the model table: every
// name resolves to a model equal to the table's, each call returns a fresh
// copy the caller may change, and an unknown name resolves to nil.
func TestCostModelByName(t *testing.T) {
	for _, want := range CostModels() {
		got := CostModelByName(want.Name)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("CostModelByName(%q) = %+v, want %+v", want.Name, got, want)
		}
		got.OpCost[Load]++
		got.BuiltinCost[BSuspend]++
		if again := CostModelByName(want.Name); !reflect.DeepEqual(again, want) {
			t.Fatalf("CostModelByName(%q) shares state between calls", want.Name)
		}
	}
	for _, name := range []string{"", "vax", "SPARC", "sparc "} {
		if m := CostModelByName(name); m != nil {
			t.Errorf("CostModelByName(%q) = %s, want nil", name, m.Name)
		}
	}
}

// TestRunClasses pins the op classes the interpreter's batched runs are
// built from: every defined op is exactly one of straightline, branch, call
// or poll point, and an undefined opcode is none of them.
func TestRunClasses(t *testing.T) {
	for o := Op(0); o < numOps; o++ {
		n := 0
		for _, in := range []bool{o.Straightline(), o.Branch(), o == Call, o == Poll} {
			if in {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%v: in %d of straightline/branch/call/poll, want exactly 1", o, n)
		}
	}
	if o := numOps; o.Straightline() || o.Branch() {
		t.Errorf("undefined opcode %v is batchable", o)
	}
	for _, o := range []Op{Jmp, JmpReg, Beq, Bne, Blt, Ble, Bgt, Bge} {
		if !o.Branch() {
			t.Errorf("%v is not a branch", o)
		}
	}
}
