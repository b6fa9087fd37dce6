package minic

import "fmt"

// NodeKind classifies CFG nodes.
type NodeKind int

// Node kinds.
const (
	NEntry  NodeKind = iota // function entry
	NExit                   // function exit
	NAction                 // a call (possibly property-relevant)
	NJoin                   // control-flow join / loop head
	NSpawn                  // goroutine spawn; Call is the spawned call
	NAccess                 // shared-variable read/write (concurrency checkers)
)

func (k NodeKind) String() string {
	switch k {
	case NEntry:
		return "entry"
	case NExit:
		return "exit"
	case NAction:
		return "action"
	case NJoin:
		return "join"
	case NSpawn:
		return "spawn"
	case NAccess:
		return "access"
	}
	return "?"
}

// ConcOp classifies a node's concurrency event, if any. Lock events
// carry the lock object's identity (the receiver's rendering) in
// ConcArg, so checkers distinguish mu1 from mu2; channel events carry
// the channel's rendering, accesses the variable name.
type ConcOp int

// Concurrency events.
const (
	ConcNone    ConcOp = iota
	ConcSpawn          // go f(...)
	ConcSend           // ch <- v
	ConcRecv           // <-ch
	ConcClose          // close(ch)
	ConcLock           // mu.Lock()
	ConcUnlock         // mu.Unlock()
	ConcRLock          // mu.RLock()
	ConcRUnlock        // mu.RUnlock()
	ConcLoad           // shared-variable read
	ConcStore          // shared-variable write
)

func (c ConcOp) String() string {
	switch c {
	case ConcSpawn:
		return "spawn"
	case ConcSend:
		return "send"
	case ConcRecv:
		return "recv"
	case ConcClose:
		return "close"
	case ConcLock:
		return "lock"
	case ConcUnlock:
		return "unlock"
	case ConcRLock:
		return "rlock"
	case ConcRUnlock:
		return "runlock"
	case ConcLoad:
		return "load"
	case ConcStore:
		return "store"
	}
	return "none"
}

// Node is one control-flow-graph node. Action nodes carry the call they
// perform; the action is considered to happen on the node's outgoing
// edges, matching the constraint generation scheme of §6.1 (the statement
// s yields S ⊆^s S_i for each successor).
type Node struct {
	ID   int
	Kind NodeKind
	Fn   string
	// Call is the performed call for NAction nodes.
	Call *CallExpr
	// AssignTo is the variable receiving the call's result, used by
	// parametric event labels ("int fd1 = open(...)").
	AssignTo string
	// Conc classifies the node's concurrency event (spawn, channel
	// operation, lock acquisition/release with its lock identity, or a
	// shared-variable access); ConcNone for sequential nodes.
	Conc ConcOp
	// ConcArg is the event's object: the spawned callee, the channel or
	// lock rendering, or the accessed variable name.
	ConcArg string
	Line    int
	Succs   []int
}

// CFG is the whole-program control flow graph: one subgraph per function
// plus entry/exit markers. Interprocedural edges are not materialized
// here; the model checker adds call/return constraints per §6.1.
type CFG struct {
	Prog  *Program
	Nodes []*Node
	Entry map[string]int
	Exit  map[string]int
	// Funcs holds one node range per function, in definition order:
	// Build lays each function out contiguously, entry node first.
	Funcs []FuncRange
}

// FuncRange is one function's canonical name and its nodes, Nodes[Lo:Hi].
type FuncRange struct {
	Name   string
	Lo, Hi int
}

// Build constructs the CFG of a parsed program.
func Build(prog *Program) (*CFG, error) { return BuildFrom(prog, nil, nil) }

// BuildFrom constructs the CFG of prog like Build, but takes function
// i's nodes from prev's function reuse[i] (an index into prev.Funcs)
// wherever reuse[i] >= 0 and the function lands at the node IDs it had
// in prev, instead of laying it out again. The caller guarantees that
// the two were built from the same *FuncDef under the same name
// resolution, so that their nodes are equal: the result equals
// Build(prog) and shares those nodes with prev. A function that an
// earlier size change moved is laid out again, and a nil reuse lays out
// every function.
func BuildFrom(prog *Program, prev *CFG, reuse []int) (*CFG, error) {
	g := &CFG{Prog: prog, Entry: make(map[string]int, len(prog.Funcs)),
		Exit: make(map[string]int, len(prog.Funcs)), Funcs: make([]FuncRange, 0, len(prog.Funcs))}
	if prev != nil && len(prog.Funcs) > 0 {
		g.Nodes = make([]*Node, 0, len(prev.Nodes))
	}
	for i, fd := range prog.Funcs {
		lo := len(g.Nodes)
		if reuse != nil && reuse[i] >= 0 && prev.Funcs[reuse[i]].Lo == lo {
			r := prev.Funcs[reuse[i]]
			g.Nodes = append(g.Nodes, prev.Nodes[r.Lo:r.Hi]...)
		} else if err := g.layout(fd); err != nil {
			return nil, err
		}
		// Every function's layout starts with its entry node, then its
		// exit node.
		g.Entry[fd.Name], g.Exit[fd.Name] = lo, lo+1
		g.Funcs = append(g.Funcs, FuncRange{fd.Name, lo, len(g.Nodes)})
	}
	return g, nil
}

// layout appends fd's nodes: its entry, its exit, then its body's.
func (g *CFG) layout(fd *FuncDef) error {
	b := &cfgBuilder{g: g, fn: fd.Name}
	entry := b.node(NEntry, nil, "", fd.Line)
	b.exit = b.node(NExit, nil, "", fd.Line).ID
	tails := b.stmts(fd.Body, []int{entry.ID})
	b.linkAll(tails, b.exit)
	return b.err
}

// MustBuild panics on error.
func MustBuild(prog *Program) *CFG {
	g, err := Build(prog)
	if err != nil {
		panic(err)
	}
	return g
}

type cfgBuilder struct {
	g    *CFG
	fn   string
	exit int
	// breakFrames collects the dangling tails of break statements per
	// enclosing loop/switch/labeled block; continueTargets holds the node
	// continue jumps to per enclosing loop. Frames carry the statement's
	// label so labeled break/continue can address outer frames.
	breakFrames     []breakFrame
	continueTargets []continueTarget
	err             error
}

type breakFrame struct {
	label string
	tails []int
}

type continueTarget struct {
	label string
	node  int
}

func (b *cfgBuilder) node(kind NodeKind, call *CallExpr, assignTo string, line int) *Node {
	n := &Node{ID: len(b.g.Nodes), Kind: kind, Fn: b.fn, Call: call, AssignTo: assignTo, Line: line}
	if kind == NAction && call != nil {
		b.classifyLock(n, call)
	}
	b.g.Nodes = append(b.g.Nodes, n)
	return n
}

// lockCallOps maps sync.Mutex/RWMutex method names (receiver as arg 0
// after the Go translation) to their concurrency events.
var lockCallOps = map[string]ConcOp{
	"Lock": ConcLock, "Unlock": ConcUnlock,
	"RLock": ConcRLock, "RUnlock": ConcRUnlock,
}

// classifyLock tags lock-identity-carrying call events. A call to a
// function the program defines under the same name is an ordinary
// interprocedural call, not a lock event.
func (b *cfgBuilder) classifyLock(n *Node, call *CallExpr) {
	op, ok := lockCallOps[call.Name]
	if !ok || len(call.Args) == 0 {
		return
	}
	if _, defined := b.g.Prog.Callee(call); defined {
		return
	}
	n.Conc, n.ConcArg = op, call.Args[0].Render()
}

func (b *cfgBuilder) link(from, to int) {
	n := b.g.Nodes[from]
	for _, s := range n.Succs {
		if s == to {
			return
		}
	}
	n.Succs = append(n.Succs, to)
}

func (b *cfgBuilder) linkAll(from []int, to int) {
	for _, f := range from {
		b.link(f, to)
	}
}

// chainCalls appends one action node per call in e (evaluation order) and
// returns the new tails. assignTo applies to the last (outermost) call.
func (b *cfgBuilder) chainCalls(e Expr, assignTo string, line int, tails []int) []int {
	if e == nil {
		return tails
	}
	calls := Calls(e, nil)
	for i, c := range calls {
		at := ""
		if i == len(calls)-1 {
			at = assignTo
		}
		n := b.node(NAction, c, at, c.Line)
		_ = line
		b.linkAll(tails, n.ID)
		tails = []int{n.ID}
	}
	return tails
}

func (b *cfgBuilder) stmts(body []Stmt, tails []int) []int {
	for _, st := range body {
		tails = b.stmt(st, tails)
	}
	return tails
}

func (b *cfgBuilder) stmt(st Stmt, tails []int) []int {
	switch s := st.(type) {
	case *ExprStmt:
		return b.chainCalls(s.X, "", s.Line, tails)
	case *DeclStmt:
		return b.chainCalls(s.Init, s.Name, s.Line, tails)
	case *AssignStmt:
		return b.chainCalls(s.X, s.Name, s.Line, tails)
	case *StoreStmt:
		return b.chainCalls(s.X, "", s.Line, tails)
	case *SpawnStmt:
		// Argument calls are evaluated by the spawner; the spawned call
		// itself becomes the NSpawn node (it runs concurrently and never
		// returns into this function's flow).
		for _, a := range s.Call.Args {
			tails = b.chainCalls(a, "", s.Line, tails)
		}
		n := b.node(NSpawn, s.Call, "", s.Line)
		n.Conc, n.ConcArg = ConcSpawn, s.Call.Name
		b.linkAll(tails, n.ID)
		return []int{n.ID}
	case *SendStmt:
		tails = b.chainCalls(s.Value, "", s.Line, tails)
		return []int{b.chanOp(ConcSend, "$chan.send", s.Chan, "", s.Line, tails)}
	case *RecvStmt:
		return []int{b.chanOp(ConcRecv, "$chan.recv", s.Chan, s.AssignTo, s.Line, tails)}
	case *CloseStmt:
		return []int{b.chanOp(ConcClose, "$chan.close", s.Chan, "", s.Line, tails)}
	case *AccessStmt:
		n := b.node(NAccess, nil, "", s.Line)
		n.Conc, n.ConcArg = ConcLoad, s.Name
		if s.Write {
			n.Conc = ConcStore
		}
		b.linkAll(tails, n.ID)
		return []int{n.ID}
	case *BlockStmt:
		if s.Label == "" {
			return b.stmts(s.Body, tails)
		}
		// Labeled block: a break target ("L: { ... break L }").
		b.breakFrames = append(b.breakFrames, breakFrame{label: s.Label})
		out := b.stmts(s.Body, tails)
		breaks := b.popBreakFrame()
		return append(out, breaks...)
	case *ReturnStmt:
		tails = b.chainCalls(s.X, "", s.Line, tails)
		b.linkAll(tails, b.exit)
		return nil // code after return is unreachable
	case *IfStmt:
		tails = b.chainCalls(s.Cond, "", s.Line, tails)
		thenTails := b.stmts(s.Then, tails)
		elseTails := tails
		if s.Else != nil {
			elseTails = b.stmts(s.Else, tails)
		}
		return append(append([]int{}, thenTails...), elseTails...)
	case *WhileStmt:
		head := b.node(NJoin, nil, "", s.Line)
		b.linkAll(tails, head.ID)
		condTails := b.chainCalls(s.Cond, "", s.Line, []int{head.ID})
		breaks := b.loop(s.Label, head.ID, func() []int {
			bodyTails := b.stmts(s.Body, condTails)
			b.linkAll(bodyTails, head.ID)
			return nil
		})
		return append(append([]int{}, condTails...), breaks...)
	case *DoWhileStmt:
		bodyHead := b.node(NJoin, nil, "", s.Line)
		b.linkAll(tails, bodyHead.ID)
		condJoin := b.node(NJoin, nil, "", s.Line)
		var condTails []int
		breaks := b.loop(s.Label, condJoin.ID, func() []int {
			bodyTails := b.stmts(s.Body, []int{bodyHead.ID})
			b.linkAll(bodyTails, condJoin.ID)
			condTails = b.chainCalls(s.Cond, "", s.Line, []int{condJoin.ID})
			b.linkAll(condTails, bodyHead.ID) // loop back
			return nil
		})
		return append(append([]int{}, condTails...), breaks...)
	case *ForStmt:
		if s.Init != nil {
			tails = b.stmt(s.Init, tails)
		}
		head := b.node(NJoin, nil, "", s.Line)
		b.linkAll(tails, head.ID)
		condTails := b.chainCalls(s.Cond, "", s.Line, []int{head.ID})
		postJoin := b.node(NJoin, nil, "", s.Line)
		breaks := b.loop(s.Label, postJoin.ID, func() []int {
			bodyTails := b.stmts(s.Body, condTails)
			b.linkAll(bodyTails, postJoin.ID)
			postTails := []int{postJoin.ID}
			if s.Post != nil {
				postTails = b.stmt(s.Post, postTails)
			}
			b.linkAll(postTails, head.ID)
			return nil
		})
		if s.Cond == nil {
			// No condition: the only exits are breaks.
			return breaks
		}
		return append(append([]int{}, condTails...), breaks...)
	case *BreakStmt:
		idx := b.findBreakFrame(s.Label)
		if idx < 0 {
			if s.Label != "" {
				b.err = &SyntaxError{s.Line, 1, "break label " + s.Label + " not found"}
			} else {
				b.err = &SyntaxError{s.Line, 1, "break outside loop or switch"}
			}
			return nil
		}
		b.breakFrames[idx].tails = append(b.breakFrames[idx].tails, tails...)
		return nil
	case *ContinueStmt:
		target, ok := b.findContinueTarget(s.Label)
		if !ok {
			if s.Label != "" {
				b.err = &SyntaxError{s.Line, 1, "continue label " + s.Label + " not found"}
			} else {
				b.err = &SyntaxError{s.Line, 1, "continue outside loop"}
			}
			return nil
		}
		b.linkAll(tails, target)
		return nil
	case *SwitchStmt:
		tails = b.chainCalls(s.Cond, "", s.Line, tails)
		b.breakFrames = append(b.breakFrames, breakFrame{label: s.Label})
		var fall []int
		hasDefault := false
		for _, c := range s.Cases {
			if c.IsDefault {
				hasDefault = true
			}
			entry := append(append([]int{}, tails...), fall...)
			fall = b.stmts(c.Body, entry)
		}
		breaks := b.popBreakFrame()
		out := append(append([]int{}, fall...), breaks...)
		if !hasDefault {
			out = append(out, tails...) // no case taken
		}
		return out
	default:
		panic(fmt.Sprintf("minic: unknown statement %T", st))
	}
}

// chanOp appends a channel-operation action node. The operation is
// exposed as a synthesized $chan.* call so event maps (and therefore
// RASC properties) can match it like any other call, parametric in the
// channel.
func (b *cfgBuilder) chanOp(op ConcOp, name, ch, assignTo string, line int, tails []int) int {
	call := &CallExpr{Name: name, Args: []Expr{&IdentExpr{Name: ch}}, Line: line}
	n := b.node(NAction, call, assignTo, line)
	n.Conc, n.ConcArg = op, ch
	b.linkAll(tails, n.ID)
	return n.ID
}

// loop runs body with a continue target and a fresh break frame (both
// tagged with the loop's label, if any), and returns the collected break
// tails.
func (b *cfgBuilder) loop(label string, target int, body func() []int) []int {
	b.continueTargets = append(b.continueTargets, continueTarget{label: label, node: target})
	b.breakFrames = append(b.breakFrames, breakFrame{label: label})
	body()
	breaks := b.popBreakFrame()
	b.continueTargets = b.continueTargets[:len(b.continueTargets)-1]
	return breaks
}

// popBreakFrame removes the innermost break frame and returns its tails.
func (b *cfgBuilder) popBreakFrame() []int {
	top := len(b.breakFrames) - 1
	breaks := b.breakFrames[top].tails
	b.breakFrames = b.breakFrames[:top]
	return breaks
}

// findBreakFrame resolves a break statement to a frame index: the
// innermost frame when label is empty, the innermost frame with that
// label otherwise. Returns -1 when there is no match.
func (b *cfgBuilder) findBreakFrame(label string) int {
	for i := len(b.breakFrames) - 1; i >= 0; i-- {
		if label == "" || b.breakFrames[i].label == label {
			return i
		}
	}
	return -1
}

// findContinueTarget resolves a continue statement to its loop head.
func (b *cfgBuilder) findContinueTarget(label string) (int, bool) {
	for i := len(b.continueTargets) - 1; i >= 0; i-- {
		if label == "" || b.continueTargets[i].label == label {
			return b.continueTargets[i].node, true
		}
	}
	return 0, false
}

// NumActions returns the number of action (call) nodes, a proxy for
// program size in the benchmarks.
func (g *CFG) NumActions() int {
	n := 0
	for _, nd := range g.Nodes {
		if nd.Kind == NAction {
			n++
		}
	}
	return n
}
