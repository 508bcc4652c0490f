package exec

import (
	"fmt"
	"math"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/types"
)

// CompileError reports an expression shape the compiler does not lower; the
// statement runs through the interpreter instead.
type CompileError struct {
	Msg string
}

func (e *CompileError) Error() string { return "exec: " + e.Msg }

func compilePanic(format string, args ...any) {
	panic(&CompileError{Msg: fmt.Sprintf(format, args...)})
}

// compiler carries the static state of one program's compilation: the slot
// assignment of the statement being lowered (one register per variable name
// — sound because a variable is only ever written where it is statically
// unbound, and every read on a pipeline path is dominated by the write that
// bound it) and the machine layout every statement adds to.
type compiler struct {
	program
	slots map[string]int
	// handleIDs numbers the program's handles by name and probe columns.
	handleIDs map[string]int
}

func (c *compiler) slot(name string) int {
	if s, ok := c.slots[name]; ok {
		return s
	}
	s := len(c.slots)
	c.slots[name] = s
	c.nRegs = max(c.nRegs, s+1)
	return s
}

// handle returns the id of the machine's handle for name probed on cols.
func (c *compiler) handle(name string, cols []int) int {
	key := fmt.Sprint(name, cols)
	id, ok := c.handleIDs[key]
	if !ok {
		id = c.nHandles
		c.nHandles++
		c.handleIDs[key] = id
	}
	return id
}

// statement lowers one trigger statement — "target[targetKeys] ±= rhs" under
// the program's trigger arguments, which occupy the first registers; the
// statement's own variables take the registers above them. It returns a
// *CompileError for shapes the compiler does not handle.
func (c *compiler) statement(rhs agca.Expr, targetKeys []string) (root node, err error) {
	defer func() {
		if r := recover(); r != nil {
			ce, ok := r.(*CompileError)
			if !ok {
				panic(r)
			}
			err = ce
		}
	}()
	c.slots = make(map[string]int, len(c.args))
	for _, a := range c.args {
		c.slot(a)
	}
	bound := agca.NewVarSet(c.args...)
	// Every target key must be statically bound after the pipeline: either a
	// trigger argument or an output variable of the RHS. (The interpreter
	// additionally tolerates missing key columns when the result is empty;
	// statements relying on that stay interpreted.)
	avail := bound.Clone()
	avail.AddAll(agca.OutputVars(rhs, bound))
	keySlots := make([]int, len(targetKeys))
	for i, k := range targetKeys {
		if !avail[k] {
			compilePanic("target key %q is neither a trigger argument nor an output of the RHS", k)
		}
		keySlots[i] = c.slot(k)
	}
	return c.compile(rhs, bound, emit(keySlots)), nil
}

// CompileTrigger lowers a trigger's statements, in order, into one program
// over trigger arguments args, with each statement's sink fixed: statements
// whose shape does not lower (and those marked Interpret) run through the
// interpreter inside the same program.
func CompileTrigger(stmts []Stmt, args []string) *Trigger {
	c := &compiler{program: program{args: args, nRegs: len(args)}, handleIDs: map[string]int{}}
	for _, s := range stmts {
		st := step{rangeLo: c.nRanges}
		if !s.Interpret {
			root, err := c.statement(s.RHS, s.TargetKeys)
			st.run, st.compiled = root, err == nil
		}
		if !st.compiled {
			st.run = interpret(s.RHS, s.TargetKeys, args)
		}
		st.rangeHi = c.nRanges
		c.steps = append(c.steps, st)
		c.nKey = max(c.nKey, len(s.TargetKeys))
	}
	p := &c.program
	m := p.newMachine()
	for i, s := range stmts {
		sk := &m.sinks[i]
		switch {
		case s.Target == nil:
			p.steps[i].run = func(*machine, float64) {
				panic(&agca.EvalError{Msg: "statement has no target map"})
			}
		case s.Replace || s.ReadsTarget && p.steps[i].compiled:
			sk.scratch = gmr.New(types.Schema(s.Target.Keys()))
			sk.acc, sk.target, sk.replace = sk.scratch, s.Target, s.Replace
		default:
			sk.acc = s.Target
		}
	}
	return &Trigger{p: p, m: m}
}

// CompileStatement lowers one trigger statement — "target[targetKeys] ±=
// rhs" under trigger arguments args — into an executor. It returns a
// *CompileError for shapes the compiler does not handle.
func CompileStatement(rhs agca.Expr, targetKeys []string, args []string) (*Executor, error) {
	c := &compiler{program: program{args: args, nRegs: len(args)}, handleIDs: map[string]int{}}
	root, err := c.statement(rhs, targetKeys)
	if err != nil {
		return nil, err
	}
	c.steps, c.nKey = []step{{run: root, compiled: true, rangeHi: c.nRanges}}, len(targetKeys)
	return &Executor{p: &c.program}, nil
}

// compile lowers e, evaluated with the variables in bound already carrying
// values in their slots, into a node that pushes each result row (output
// slots written, multiplicity multiplied into the incoming one) to next.
func (c *compiler) compile(e agca.Expr, bound agca.VarSet, next node) node {
	switch n := e.(type) {
	case agca.Const:
		f := n.V.AsFloat()
		if f == 0 {
			return func(m *machine, mult float64) {}
		}
		return func(m *machine, mult float64) { next(m, mult*f) }
	case agca.Var:
		s := c.boundSlot(n.Name, bound)
		return func(m *machine, mult float64) {
			if f := m.regs[s].AsFloat(); f != 0 {
				next(m, mult*f)
			}
		}
	case agca.Rel:
		return c.compileAtom(n.Name, n.Vars, bound, next)
	case agca.MapRef:
		return c.compileAtom(n.Name, n.Keys, bound, next)
	case agca.Neg:
		return c.compile(n.E, bound, func(m *machine, mult float64) { next(m, -mult) })
	case agca.Sum:
		return c.compileSum(n, bound, next)
	case agca.Prod:
		return c.compileProd(n, bound, next)
	case agca.Cmp:
		return c.compileCmpNode(n, bound, next)
	case agca.Lift:
		return c.compileLift(n, bound, next)
	case agca.AggSum:
		// Group-by summation is a pure projection in the push model: dropped
		// variables go statically out of scope and every consumer either
		// multiplies linearly or sums at its own keyed materialization point,
		// so summing early and summing late coincide. The group-by variables
		// must be produced by the inner expression (the interpreter's Project
		// panics otherwise).
		innerOut := agca.NewVarSet(agca.OutputVars(n.E, bound)...)
		for _, g := range n.GroupBy {
			if !innerOut[g] {
				compilePanic("group-by variable %q is not an output of the aggregated expression", g)
			}
		}
		return c.compile(n.E, bound, next)
	case agca.Exists:
		return c.compileExists(n, bound, next)
	case agca.Div:
		l := c.compileScalar(n.L, bound)
		r := c.compileScalar(n.R, bound)
		return func(m *machine, mult float64) {
			if f := types.Div(l(m), r(m)).AsFloat(); f != 0 {
				next(m, mult*f)
			}
		}
	case agca.Func:
		s := c.compileScalar(n, bound)
		return func(m *machine, mult float64) {
			if f := s(m).AsFloat(); f != 0 {
				next(m, mult*f)
			}
		}
	default:
		compilePanic("unknown expression node %T", e)
		return nil
	}
}

// cmpMaskFor folds a comparison operator into a 3-bit outcome mask, read
// from CmpOp.Holds at compile time: bit (Compare(l, r) + 1) is set when the
// outcome satisfies the operator. The per-row check is then one Compare plus
// a shift — no operator switch, no extra call level.
func cmpMaskFor(op agca.CmpOp) uint8 {
	var mask uint8
	for c := -1; c <= 1; c++ {
		if op.Holds(c) {
			mask |= 1 << uint(c+1)
		}
	}
	if mask == 0 {
		compilePanic("unknown comparison operator %v", op)
	}
	return mask
}

// compileCmpNode lowers a comparison in relational position. The dominant
// shapes — register-vs-register and register-vs-constant — are specialized
// to read their operands directly instead of going through scalar closures
// (a comparison over a scanned relation runs once per row, so the two
// avoided indirect calls and Value copies are a measurable share of scan-
// heavy queries).
func (c *compiler) compileCmpNode(n agca.Cmp, bound agca.VarSet, next node) node {
	mask := cmpMaskFor(n.Op)
	lv, lVar := n.L.(agca.Var)
	rv, rVar := n.R.(agca.Var)
	lc, lConst := n.L.(agca.Const)
	rc, rConst := n.R.(agca.Const)
	switch {
	case lVar && rVar:
		ls, rs := c.boundSlot(lv.Name, bound), c.boundSlot(rv.Name, bound)
		return func(m *machine, mult float64) {
			if mask&(1<<uint(types.Compare(m.regs[ls], m.regs[rs])+1)) != 0 {
				next(m, mult)
			}
		}
	case lVar && rConst:
		ls, cv := c.boundSlot(lv.Name, bound), rc.V
		return func(m *machine, mult float64) {
			if mask&(1<<uint(types.Compare(m.regs[ls], cv)+1)) != 0 {
				next(m, mult)
			}
		}
	case lConst && rVar:
		cv, rs := lc.V, c.boundSlot(rv.Name, bound)
		return func(m *machine, mult float64) {
			if mask&(1<<uint(types.Compare(cv, m.regs[rs])+1)) != 0 {
				next(m, mult)
			}
		}
	default:
		l := c.compileScalar(n.L, bound)
		r := c.compileScalar(n.R, bound)
		return func(m *machine, mult float64) {
			if mask&(1<<uint(types.Compare(l(m), r(m))+1)) != 0 {
				next(m, mult)
			}
		}
	}
}

func (c *compiler) boundSlot(name string, bound agca.VarSet) int {
	if !bound[name] {
		compilePanic("unbound variable %q", name)
	}
	return c.slot(name)
}

// atom is a compiled relation atom or map reference. Bound positions become
// the probe (columns, and the slots whose values encode its key), unbound
// variables become slot writes, and repeated unbound variables become
// equality checks — all decided at compile time.
type atom struct {
	name       string
	arity      int
	probeCols  []int // bound positions, ascending
	probeSlots []int // the slot probed with at each probe column
	writeSlots []int // unbound first occurrences: slot <- tuple[writePos]
	writePos   []int
	eqFirst    []int // repeated unbound: tuple[eqFirst] == tuple[eqLater]
	eqLater    []int
	// handle is the atom's index into machine.handles, or -1 when no
	// position is bound.
	handle int
	next   node
}

func (c *compiler) compileAtom(name string, vars []string, bound agca.VarSet, next node) node {
	a := &atom{name: name, arity: len(vars), handle: -1, next: next}
	firstPos := map[string]int{}
	for i, v := range vars {
		if bound[v] {
			a.probeCols = append(a.probeCols, i)
			a.probeSlots = append(a.probeSlots, c.slot(v))
			continue
		}
		if j, ok := firstPos[v]; ok {
			a.eqFirst = append(a.eqFirst, j)
			a.eqLater = append(a.eqLater, i)
			continue
		}
		firstPos[v] = i
		a.writeSlots = append(a.writeSlots, c.slot(v))
		a.writePos = append(a.writePos, i)
	}
	if len(a.probeCols) > 0 {
		a.handle = c.handle(name, a.probeCols)
	}
	return a.run
}

// run probes through the machine's bound handle: the first run against a
// database binds it, every later one encodes the key from the registers and
// visits the bucket's slots. Databases that do not bind, and atoms with no
// bound position, scan the relation and filter on the bound positions.
func (a *atom) run(m *machine, mult float64) {
	if a.handle >= 0 && m.binder != nil {
		h := m.handles[a.handle]
		if h == nil {
			h = m.binder.Bind(a.name, a.probeCols)
			m.handles[a.handle] = h
		}
		key := m.keyBuf[:0]
		for _, s := range a.probeSlots {
			key = m.regs[s].EncodeKey(key)
		}
		m.keyBuf = key
		g, ids := h.Probe(key)
		for _, id := range ids {
			e := g.SlotEntry(id)
			a.row(m, e.Tuple, mult*e.Mult)
		}
		return
	}
	m.db.Relation(a.name).Foreach(func(t types.Tuple, rowMult float64) {
		if len(t) == a.arity {
			for i, col := range a.probeCols {
				if !m.regs[a.probeSlots[i]].Equal(t[col]) {
					return
				}
			}
		}
		a.row(m, t, mult*rowMult)
	})
}

// row binds one matching tuple's unbound variables and pushes it on.
func (a *atom) row(m *machine, t types.Tuple, mult float64) {
	if len(t) != a.arity {
		panic(&agca.EvalError{Msg: fmt.Sprintf(
			"relation %q arity mismatch: tuple has %d columns, atom has %d variables", a.name, len(t), a.arity)})
	}
	for i := range a.eqFirst {
		if !t[a.eqFirst[i]].Equal(t[a.eqLater[i]]) {
			return
		}
	}
	for i, s := range a.writeSlots {
		m.regs[s] = t[a.writePos[i]]
	}
	a.next(m, mult)
}

// compileSum lowers bag union: every term runs over the same incoming row.
// All terms must produce the same output-variable set (the interpreter's
// union compatibility, checked statically here).
func (c *compiler) compileSum(n agca.Sum, bound agca.VarSet, next node) node {
	if len(n.Terms) == 0 {
		return func(m *machine, mult float64) {}
	}
	outs := agca.NewVarSet(agca.OutputVars(n.Terms[0], bound)...)
	for _, t := range n.Terms[1:] {
		to := agca.NewVarSet(agca.OutputVars(t, bound)...)
		if len(to) != len(outs) {
			compilePanic("union of terms with different output variables")
		}
		for v := range to {
			if !outs[v] {
				compilePanic("union of terms with different output variables")
			}
		}
	}
	terms := make([]node, len(n.Terms))
	for i, t := range n.Terms {
		terms[i] = c.compile(t, bound, next)
	}
	if len(terms) == 2 {
		a, b := terms[0], terms[1]
		return func(m *machine, mult float64) {
			a(m, mult)
			b(m, mult)
		}
	}
	return func(m *machine, mult float64) {
		for _, t := range terms {
			t(m, mult)
		}
	}
}

// compileProd lowers the sideways-binding product: the factors are chained
// right to left so that each factor's node pushes into its right neighbour,
// with the set of bound variables growing left to right exactly as in the
// interpreter.
func (c *compiler) compileProd(n agca.Prod, bound agca.VarSet, next node) node {
	bounds := make([]agca.VarSet, len(n.Factors))
	cur := bound
	for i, f := range n.Factors {
		bounds[i] = cur
		nxt := cur.Clone()
		nxt.AddAll(agca.OutputVars(f, cur))
		cur = nxt
	}
	out := next
	for i := len(n.Factors) - 1; i >= 0; i-- {
		out = c.compile(n.Factors[i], bounds[i], out)
	}
	return out
}

// compileLift lowers x := Q: an unbound x binds its slot to the scalar value
// of Q with multiplicity 1; a bound x becomes an equality filter.
func (c *compiler) compileLift(n agca.Lift, bound agca.VarSet, next node) node {
	body := c.compileScalar(n.E, bound)
	if bound[n.Var] {
		s := c.slot(n.Var)
		return func(m *machine, mult float64) {
			if m.regs[s].Equal(body(m)) {
				next(m, mult)
			}
		}
	}
	s := c.slot(n.Var)
	return func(m *machine, mult float64) {
		m.regs[s] = body(m)
		next(m, mult)
	}
}

// compileExists lowers the domain-extraction operator. Exists is non-linear
// in multiplicities (every tuple with non-zero total multiplicity counts
// once), so the inner result is materialized into a scratch flat table keyed
// on the inner output slots before each surviving group is pushed with
// multiplicity one. The scratch GMR is Reset after use, so steady-state
// materialization performs no string conversions and no per-group
// allocations beyond the first event's working set.
func (c *compiler) compileExists(n agca.Exists, bound agca.VarSet, next node) node {
	outs := agca.OutputVars(n.E, bound)
	outSlots := make([]int, len(outs))
	for i, v := range outs {
		outSlots[i] = c.slot(v)
	}
	schema := types.Schema(outs).Clone()
	scratchID := c.nScratch
	c.nScratch++
	// The group tuple is staged in a per-node vals buffer; the scratch table
	// clones it when a new group is created.
	valsID := len(c.valSizes)
	c.valSizes = append(c.valSizes, len(outSlots))
	inner := c.compile(n.E, bound, func(m *machine, mult float64) {
		if mult == 0 {
			return
		}
		t := types.Tuple(m.vals[valsID])
		for i, s := range outSlots {
			t[i] = m.regs[s]
		}
		m.keyBuf = t.AppendKey(m.keyBuf[:0])
		m.scratch[scratchID].AddEncoded(m.keyBuf, t, mult)
	})
	return func(m *machine, mult float64) {
		if m.scratch[scratchID] == nil {
			m.scratch[scratchID] = gmr.New(schema)
		}
		sm := m.scratch[scratchID]
		inner(m, 1)
		sm.Foreach(func(t types.Tuple, sum float64) {
			if math.Abs(sum) <= gmr.Epsilon {
				return
			}
			for i, s := range outSlots {
				m.regs[s] = t[i]
			}
			next(m, mult)
		})
		sm.Reset()
	}
}

// compileScalar lowers an expression in scalar position, mirroring
// agca.EvalScalar including its fallback: a relational subexpression whose
// output variables are all statically bound (or that is nullary) evaluates to
// the sum of its result multiplicities.
func (c *compiler) compileScalar(e agca.Expr, bound agca.VarSet) scalar {
	switch n := e.(type) {
	case agca.Const:
		v := n.V
		return func(m *machine) types.Value { return v }
	case agca.Var:
		s := c.boundSlot(n.Name, bound)
		return func(m *machine) types.Value { return m.regs[s] }
	case agca.Neg:
		inner := c.compileScalar(n.E, bound)
		return func(m *machine) types.Value { return types.Neg(inner(m)) }
	case agca.Div:
		l := c.compileScalar(n.L, bound)
		r := c.compileScalar(n.R, bound)
		return func(m *machine) types.Value { return types.Div(l(m), r(m)) }
	case agca.Func:
		// The function is resolved at compile time (unknown names fall back
		// to the interpreter, which reports the same EvalError per row). The
		// argument buffer is reused across calls; argument evaluation may
		// recurse into other Func nodes, which own their own buffers.
		// Arguments are specialized by shape: constants are prefilled into
		// the machine's buffer once at machine creation, register reads skip
		// the scalar-closure indirection, and only genuinely computed
		// arguments evaluate through a closure.
		fn, ok := agca.ResolveFunc(n.Name)
		if !ok {
			compilePanic("unknown function %q", n.Name)
		}
		valsID := len(c.valSizes)
		c.valSizes = append(c.valSizes, len(n.Args))
		type regArg struct{ idx, slot int }
		type genArg struct {
			idx int
			fn  scalar
		}
		var regArgs []regArg
		var genArgs []genArg
		for i, a := range n.Args {
			switch an := a.(type) {
			case agca.Const:
				c.prefills = append(c.prefills, prefill{valsID: valsID, idx: i, val: an.V})
			case agca.Var:
				regArgs = append(regArgs, regArg{idx: i, slot: c.boundSlot(an.Name, bound)})
			default:
				genArgs = append(genArgs, genArg{idx: i, fn: c.compileScalar(a, bound)})
			}
		}
		return func(m *machine) types.Value {
			vals := m.vals[valsID]
			for _, ra := range regArgs {
				vals[ra.idx] = m.regs[ra.slot]
			}
			for _, ga := range genArgs {
				vals[ga.idx] = ga.fn(m)
			}
			return fn(vals)
		}
	case agca.Sum:
		terms := make([]scalar, len(n.Terms))
		for i, t := range n.Terms {
			terms[i] = c.compileScalar(t, bound)
		}
		return func(m *machine) types.Value {
			acc := types.Value(types.Int(0))
			for _, t := range terms {
				acc = types.Add(acc, t(m))
			}
			return acc
		}
	case agca.Prod:
		factors := make([]scalar, len(n.Factors))
		for i, f := range n.Factors {
			factors[i] = c.compileScalar(f, bound)
		}
		return func(m *machine) types.Value {
			acc := types.Value(types.Int(1))
			for _, f := range factors {
				acc = types.Mul(acc, f(m))
			}
			return acc
		}
	case agca.Cmp:
		l := c.compileScalar(n.L, bound)
		r := c.compileScalar(n.R, bound)
		mask := cmpMaskFor(n.Op)
		return func(m *machine) types.Value {
			if mask&(1<<uint(types.Compare(l(m), r(m))+1)) != 0 {
				return types.Int(1)
			}
			return types.Int(0)
		}
	default:
		if rs, ok := c.compileRangeSum(e, bound); ok {
			return rs
		}
		return c.compileSubquery(e, bound)
	}
}

// compileSubquery lowers a relational expression in scalar position: all of
// its output variables must be statically bound (they then act as filters),
// and the value is the multiplicity total.
func (c *compiler) compileSubquery(e agca.Expr, bound agca.VarSet) scalar {
	for _, v := range agca.OutputVars(e, bound) {
		if !bound[v] {
			compilePanic("scalar subquery with statically unbound output variable %q", v)
		}
	}
	run := c.compile(e, bound, func(m *machine, mult float64) { m.scalarAcc += mult })
	return func(m *machine) types.Value {
		saved := m.scalarAcc
		m.scalarAcc = 0
		run(m, 1)
		total := m.scalarAcc
		m.scalarAcc = saved
		return types.Float(total)
	}
}
