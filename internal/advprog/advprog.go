// Package advprog generates adversarial fork-tree programs for the
// stack-safety harness: hostile-but-well-formed programs that attack the
// frame discipline the way "Formalizing Stack Safety as a Security
// Property" attacks calling conventions. It concentrates the shapes most
// likely to break frame retention: fork nests at least 64 levels deep, epilogue races (a child
// finishing at the exact pick its parent's frame retires), args-region edge
// sizes (0-, 1- and 12-argument calls, the register-window spill boundary),
// reuse-after-retire probes (reads of dead frame slots below the stack
// top), and blocking storms (runs of forced suspensions).
//
// Every generated frame stamps per-frame canary words through the canary
// builtins; the invariant auditor's caller-integrity and
// frame-confidentiality rules watch the resulting taint map, so any program
// that manages to read or clobber another frame's retained state fails the
// run with a typed violation instead of silently corrupting the result.
//
// With BlockStorm alone it generates a plain fork tree (random fan-out,
// compute and forced suspensions, no attack constructs), the happy-path
// program the machine and scheduler property tests run.
//
// The generator is deterministic in (seed, classes): a failing fuzz input
// reproduces exactly from its two numbers.
package advprog

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/apps"
	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/stlib"
)

// Class is a bitmask of attack classes. Zero means AllClasses.
type Class uint8

// Attack classes.
const (
	// DeepNest grows a fork chain of at least MinNestDepth levels.
	DeepNest Class = 1 << iota
	// ArgsEdge mixes calls with 0-, 1- and 12-word argument regions into
	// the tree, forcing outgoing-args extents at both edges.
	ArgsEdge
	// EpilogueRace forks and joins a trivial leaf immediately before a
	// frame retires, so the child finishes at the pick adjacent to the
	// parent's epilogue.
	EpilogueRace
	// ReuseProbe reads a retired frame's slot below the stack top into a
	// dead register — legal (the space is free) but only if the runtime
	// really finished the frame there.
	ReuseProbe
	// BlockStorm raises the count of children that park on gates their
	// parent opens later — runs of forced suspensions.
	BlockStorm

	// AllClasses enables every attack class.
	AllClasses Class = 1<<5 - 1
)

// MinNestDepth is the minimum fork-chain depth the DeepNest class emits.
const MinNestDepth = 64

var classNames = []struct {
	c    Class
	name string
}{
	{DeepNest, "deepnest"},
	{ArgsEdge, "argsedge"},
	{EpilogueRace, "epiloguerace"},
	{ReuseProbe, "reuseprobe"},
	{BlockStorm, "blockstorm"},
}

func (c Class) String() string {
	if c&AllClasses == 0 {
		return "none"
	}
	var parts []string
	for _, cn := range classNames {
		if c&cn.c != 0 {
			parts = append(parts, cn.name)
		}
	}
	return strings.Join(parts, "+")
}

// ParseClasses parses a comma-separated class list ("deepnest,argsedge"),
// "all", or a decimal bitmask.
func ParseClasses(s string) (Class, error) {
	s = strings.TrimSpace(s)
	switch s {
	case "", "all":
		return AllClasses, nil
	}
	var c Class
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		found := false
		for _, cn := range classNames {
			if cn.name == part {
				c |= cn.c
				found = true
				break
			}
		}
		if !found {
			var bits uint8
			if _, err := fmt.Sscanf(part, "%d", &bits); err != nil {
				names := make([]string, len(classNames))
				for i, cn := range classNames {
					names[i] = cn.name
				}
				return 0, fmt.Errorf("advprog: unknown class %q (have %s, all)", part, strings.Join(names, ", "))
			}
			c |= Class(bits) & AllClasses
		}
	}
	return c, nil
}

// Node is one node of an adversarial fork tree.
type Node struct {
	ID       int64
	Children []*Node
	// Work is straight-line compute before contributing.
	Work int
	// Blockers is the number of children parked on gates the parent opens
	// later (forced suspensions).
	Blockers int
	// Canaries is the number of canary locals this frame stamps (>= 1).
	Canaries int
	// PrivMask marks which canaries are private (bit i = canary i);
	// private words fall under the frame-confidentiality rule.
	PrivMask uint64
	// Edge selects an args-region edge call: -1 none, 0/1/12 = the helper
	// with that argument count. The helper's return value feeds the
	// verified accumulator.
	Edge int
	// Probe reads a dead frame slot below the stack top into a dead
	// register (reuse-after-retire probe).
	Probe bool
	// Race forks and joins a trivial leaf immediately before retiring.
	Race bool
}

// Program is a generated adversarial program.
type Program struct {
	Seed    uint64
	Classes Class
	Root    *Node
	// Nodes is the tree's node count; NestDepth its longest root chain.
	Nodes     int
	NestDepth int
}

// FromSeed deterministically generates the adversarial program for
// (seed, classes). classes == 0 selects AllClasses.
func FromSeed(seed uint64, classes Class) *Program {
	classes &= AllClasses
	if classes == 0 {
		classes = AllClasses
	}
	rng := rand.New(rand.NewSource(int64(seed ^ 0x9e3779b97f4a7c15)))
	id := int64(0)

	newNode := func() *Node {
		id++
		n := &Node{
			ID:       id,
			Work:     rng.Intn(8),
			Canaries: 1 + rng.Intn(3),
			PrivMask: uint64(rng.Int63()),
			Edge:     -1,
		}
		if classes&BlockStorm != 0 {
			n.Blockers = rng.Intn(3)
		} else if rng.Intn(4) == 0 {
			n.Blockers = rng.Intn(2)
		}
		if classes&ArgsEdge != 0 {
			switch rng.Intn(4) {
			case 0:
				n.Edge = 0
			case 1:
				n.Edge = 1
			case 2:
				n.Edge = 12
			}
		}
		if classes&ReuseProbe != 0 && rng.Intn(2) == 0 {
			n.Probe = true
		}
		if classes&EpilogueRace != 0 && rng.Intn(2) == 0 {
			n.Race = true
		}
		return n
	}

	var subtree func(depth int) *Node
	subtree = func(depth int) *Node {
		n := newNode()
		if depth > 0 {
			fan := rng.Intn(3)
			for i := 0; i < fan; i++ {
				n.Children = append(n.Children, subtree(depth-1))
			}
		}
		return n
	}

	var root *Node
	if classes&DeepNest != 0 {
		// A single-child chain of >= MinNestDepth frames, every one of
		// them stamping canaries, with a small random crown at the tail.
		depth := MinNestDepth + rng.Intn(17)
		root = newNode()
		cur := root
		for i := 1; i < depth; i++ {
			c := newNode()
			// Keep the chain itself lean: blockers on every level would
			// dominate runtime without adding nest depth.
			if i%8 != 0 {
				c.Blockers = 0
			}
			cur.Children = []*Node{c}
			cur = c
		}
		cur.Children = append(cur.Children, subtree(2))
	} else {
		root = subtree(3 + rng.Intn(2))
	}

	p := &Program{Seed: seed, Classes: classes, Root: root, Nodes: int(id)}
	p.NestDepth = nestDepth(root)
	return p
}

func nestDepth(n *Node) int {
	best := 0
	for _, c := range n.Children {
		if d := nestDepth(c); d > best {
			best = d
		}
	}
	return best + 1
}

// Expected computes the accumulator value the program must produce: each
// node contributes its id, each blocker 7, and each args-edge call its
// helper's return value.
func Expected(n *Node) int64 {
	total := n.ID + 7*int64(n.Blockers)
	switch n.Edge {
	case 0:
		total += edge0RV
	case 1:
		total += n.ID + 1
	case 12:
		total += 12*n.ID + wideSumBias
	}
	for _, c := range n.Children {
		total += Expected(c)
	}
	return total
}

// Expected returns the accumulator value the whole program must produce.
func (p *Program) Expected() int64 { return Expected(p.Root) }

const (
	// edge0RV is what the zero-argument edge helper returns.
	edge0RV = 11
	// wideSumBias is sum(0..11): the wide helper receives id+i for
	// i in 0..11 and returns their sum, 12*id + wideSumBias.
	wideSumBias = 66
	// wideArgs is the max-args-region edge: wider than any register
	// window, so every argument travels through the SP-relative region.
	wideArgs = 12
)

// canaryVal is the deterministic stamp value of canary i of node id.
func canaryVal(seed uint64, id int64, i int) int64 {
	v := seed*2654435761 + uint64(id)*1000003 + uint64(i)*7919
	return int64(v&0x3fffffff) | 1
}

// Emit generates the program's procedures into u (join library already
// added): one procedure per node, the shared blocker and race leaf, the
// args-edge helpers, and the amain/boot entry.
//
// Node signature: anode_<id>(env, jcParent). env[0]=acc cell, env[1]=lock.
func Emit(u *asm.Unit, p *Program) {
	// ablocker(gate, done, env, jcParent): park on gate, contribute 7,
	// finish done and the parent's counter.
	blk := u.Proc("ablocker", 4, stlib.CtxWords)
	blk.LoadArg(isa.R0, 0)
	blk.LoadArg(isa.R1, 1)
	blk.LoadArg(isa.R2, 2)
	blk.LoadArg(isa.R3, 3)
	stlib.JCJoinInline(blk, isa.R0, 0)
	blk.Load(isa.T0, isa.R2, 1)
	stlib.LockAddrInline(blk, isa.T0)
	blk.Load(isa.T1, isa.R2, 0)
	blk.Load(isa.T2, isa.T1, 0)
	blk.AddI(isa.T2, isa.T2, 7)
	blk.Store(isa.T1, 0, isa.T2)
	stlib.UnlockAddrInline(blk, isa.T0)
	stlib.JCFinishInline(blk, isa.R1)
	stlib.JCFinishInline(blk, isa.R3)
	blk.RetVoid()

	// aleaf(jc): the epilogue-race child — finish the counter and return
	// immediately, so the finish lands at the pick adjacent to the
	// parent's retire.
	leaf := u.Proc("aleaf", 1, 0)
	leaf.LoadArg(isa.R0, 0)
	stlib.JCFinishInline(leaf, isa.R0)
	leaf.RetVoid()

	// Args-region edge helpers.
	e0 := u.Proc("aedge0", 0, 0)
	e0.Const(isa.RV, edge0RV)
	e0.Ret(isa.RV)

	e1 := u.Proc("aedge1", 1, 0)
	e1.LoadArg(isa.T0, 0)
	e1.AddI(isa.RV, isa.T0, 1)
	e1.Ret(isa.RV)

	ew := u.Proc("awide", wideArgs, 0)
	ew.LoadArg(isa.T0, 0)
	for i := 1; i < wideArgs; i++ {
		ew.LoadArg(isa.T1, i)
		ew.Add(isa.T0, isa.T0, isa.T1)
	}
	ew.Ret(isa.T0)

	var emit func(n *Node)
	emit = func(n *Node) {
		// Locals: child jc, gate jc, done jc, suspend ctx, then the
		// canary words.
		const (
			locJC   = 0
			locGate = stlib.JCWords
			locDone = 2 * stlib.JCWords
			locCtx  = 3 * stlib.JCWords
		)
		locCanary := 3*stlib.JCWords + stlib.CtxWords
		b := u.Proc(fmt.Sprintf("anode_%d", n.ID), 2, locCanary+n.Canaries)
		b.LoadArg(isa.R0, 0) // env
		b.LoadArg(isa.R1, 1) // parent jc

		// Stamp the frame's canaries as soon as the frame is formed: from
		// here to the retire sequence these words are retained state no
		// other thread may touch.
		for i := 0; i < n.Canaries; i++ {
			flags := int64(0)
			if n.PrivMask&(1<<uint(i)) != 0 {
				flags = 1
			}
			b.LocalAddr(isa.T1, locCanary+i)
			b.Const(isa.T2, canaryVal(p.Seed, n.ID, i))
			b.Const(isa.T3, flags)
			b.SetArg(0, isa.T1)
			b.SetArg(1, isa.T2)
			b.SetArg(2, isa.T3)
			b.Call("canary")
		}

		for i := 0; i < n.Work; i++ {
			b.AddI(isa.T0, isa.T0, 3)
			b.MulI(isa.T0, isa.T0, 5)
		}

		// Args-region edge call; the helper's return value joins the
		// verified contribution so a clobbered argument region changes
		// the final answer.
		haveEdge := false
		switch n.Edge {
		case 0:
			b.Call("aedge0")
			haveEdge = true
		case 1:
			b.Const(isa.T0, n.ID)
			b.SetArg(0, isa.T0)
			b.Call("aedge1")
			haveEdge = true
		case 12:
			for i := 0; i < wideArgs; i++ {
				b.Const(isa.T0, n.ID+int64(i))
				b.SetArg(i, isa.T0)
			}
			b.Call("awide")
			haveEdge = true
		}
		if haveEdge {
			b.Mov(isa.R5, isa.RV)
		}

		// Contribute id (+ edge RV) under the lock.
		b.Load(isa.T0, isa.R0, 1)
		stlib.LockAddrInline(b, isa.T0)
		b.Load(isa.T1, isa.R0, 0)
		b.Load(isa.T2, isa.T1, 0)
		b.AddI(isa.T2, isa.T2, n.ID)
		if haveEdge {
			b.Add(isa.T2, isa.T2, isa.R5)
		}
		b.Store(isa.T1, 0, isa.T2)
		stlib.UnlockAddrInline(b, isa.T0)

		// Fork all structural children under one counter.
		if len(n.Children) > 0 {
			b.LocalAddr(isa.R2, locJC)
			stlib.JCInitInline(b, isa.R2, int64(len(n.Children)))
			for _, c := range n.Children {
				b.SetArg(0, isa.R0)
				b.SetArg(1, isa.R2)
				b.Fork(fmt.Sprintf("anode_%d", c.ID))
				b.Poll()
			}
			stlib.JCJoinInline(b, isa.R2, locCtx)
		}

		// Blockers: fork one at a time, park it, release it, wait for it.
		for i := 0; i < n.Blockers; i++ {
			b.LocalAddr(isa.R3, locGate)
			b.LocalAddr(isa.R4, locDone)
			b.LocalAddr(isa.R2, locJC)
			stlib.JCInitInline(b, isa.R3, 1)
			stlib.JCInitInline(b, isa.R4, 1)
			stlib.JCInitInline(b, isa.R2, 1)
			b.SetArg(0, isa.R3)
			b.SetArg(1, isa.R4)
			b.SetArg(2, isa.R0)
			b.SetArg(3, isa.R2)
			b.Fork("ablocker")
			b.Poll()
			stlib.JCFinishInline(b, isa.R3) // open the gate
			stlib.JCJoinInline(b, isa.R4, locCtx)
			stlib.JCJoinInline(b, isa.R2, locCtx)
		}

		// Reuse-after-retire probe: children (or blockers) built frames
		// below this one and retired them; the word just under the stack
		// top is dead space the runtime may hand to anyone. Reading it is
		// legal exactly because retired frames carry no protected state —
		// a live canary down there would be a confidentiality violation.
		if n.Probe {
			b.Load(isa.T6, isa.SP, -1)
			b.Load(isa.T6, isa.SP, -2)
		}

		// Epilogue race: a last child finishing at the pick adjacent to
		// this frame's retire.
		if n.Race {
			b.LocalAddr(isa.R2, locJC)
			stlib.JCInitInline(b, isa.R2, 1)
			b.SetArg(0, isa.R2)
			b.Fork("aleaf")
			b.Poll()
			stlib.JCJoinInline(b, isa.R2, locCtx)
		}

		// Retire the canaries last — the live window extends to the edge
		// of the epilogue.
		for i := 0; i < n.Canaries; i++ {
			b.LocalAddr(isa.T1, locCanary+i)
			b.Const(isa.T2, canaryVal(p.Seed, n.ID, i))
			b.SetArg(0, isa.T1)
			b.SetArg(1, isa.T2)
			b.Call("canary_retire")
		}

		stlib.JCFinishInline(b, isa.R1)
		b.RetVoid()

		for _, c := range n.Children {
			emit(c)
		}
	}
	emit(p.Root)

	// amain(env): run the root under a counter and return the
	// accumulator.
	m := u.Proc("amain", 1, stlib.JCWords+stlib.CtxWords)
	m.LoadArg(isa.R0, 0)
	m.LocalAddr(isa.R1, 0)
	stlib.JCInitInline(m, isa.R1, 1)
	m.SetArg(0, isa.R0)
	m.SetArg(1, isa.R1)
	m.Fork(fmt.Sprintf("anode_%d", p.Root.ID))
	m.Poll()
	stlib.JCJoinInline(m, isa.R1, stlib.JCWords)
	m.Load(isa.T0, isa.R0, 0)
	m.Load(isa.RV, isa.T0, 0)
	m.Ret(isa.RV)
	stlib.AddBoot(u, "amain", 1)
}

// Workload assembles the program into a runnable workload: join library,
// node procedures, heap setup allocating the accumulator, lock and
// environment. Deterministic — equal programs produce identical workloads.
func Workload(p *Program) *apps.Workload {
	u := asm.NewUnit()
	stlib.AddJoinLib(u)
	Emit(u, p)
	w := &apps.Workload{
		Name:    "advtree",
		Variant: apps.ST,
		Procs:   u.MustBuild(),
		Entry:   stlib.ProcBoot,
	}
	w.HeapWords = 1 << 10
	w.Setup = func(m *mem.Memory) ([]int64, error) {
		acc, err := m.Alloc(1)
		if err != nil {
			return nil, err
		}
		lock, _ := m.Alloc(1)
		env, err := m.Alloc(2)
		if err != nil {
			return nil, err
		}
		m.WriteWords(env, []int64{acc, lock})
		return []int64{env}, nil
	}
	return w
}
