package spec

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"mtask/internal/graph"
)

// Unit is a compiled specification: the upper-level hierarchical M-task
// graph (while loops appear as composed nodes carrying their body as a Sub
// graph, as produced by the CM-task compiler in Fig. 4).
type Unit struct {
	Program *Program
	Graph   *graph.Graph
}

// Compile parses and compiles a specification source into its hierarchical
// M-task graph: counting loops are unrolled, activations become M-tasks
// with the declared cost annotations, and input-output relations derived
// from the parameter access annotations become edges.
func Compile(src string) (*Unit, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	c := &compiler{prog: prog}
	g, err := c.buildGraph(prog.Main.Name, prog.Main.Body, map[string]int{})
	if err != nil {
		return nil, err
	}
	g.AddStartStop()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &Unit{Program: prog, Graph: g}, nil
}

// maxUnrolled caps the loop iterations plus activations one compilation
// unrolls: counting loops are unrolled eagerly, so without a cap a bound
// like 1:1e12 would never finish.
const maxUnrolled = 100_000

// compiler carries the declarations during graph construction.
type compiler struct {
	prog     *Program
	unrolled int // loop iterations and activations emitted so far
}

// unroll counts one more loop iteration or activation against maxUnrolled.
func (c *compiler) unroll(line int) error {
	if c.unrolled++; c.unrolled > maxUnrolled {
		return fmt.Errorf("spec:%d: program unrolls to more than %d loop iterations and activations", line, maxUnrolled)
	}
	return nil
}

// depState tracks data-dependence information per variable instance key
// ("t", "V[3]", ...) during unrolled construction.
type depState struct {
	g *graph.Graph
	// lastWrite maps an instance key to the task that last wrote it.
	lastWrite map[string]graph.TaskID
	// instances maps a base variable name to its known instance keys.
	instances map[string]map[string]bool
	// outBytes remembers the producing task's output size per key.
	outBytes map[string]int
}

func newDepState(g *graph.Graph) *depState {
	return &depState{
		g:         g,
		lastWrite: make(map[string]graph.TaskID),
		instances: make(map[string]map[string]bool),
		outBytes:  make(map[string]int),
	}
}

// keysFor returns the instance keys affected by an access to the given
// expression: an indexed access touches its own key plus the whole-array
// key; an unindexed access to an array with known instances touches all of
// them.
func (d *depState) keysFor(key, base string) []string {
	keys := []string{key}
	if key != base {
		keys = append(keys, base)
	} else if inst := d.instances[base]; len(inst) > 0 {
		sorted := make([]string, 0, len(inst))
		for k := range inst {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		keys = append(keys, sorted...)
	}
	return keys
}

// read records task t reading the instance and returns its producers: the
// writers of every overlapping key (its own instance and the whole array).
// The M-task graph of the paper contains exactly these input-output
// relations (Section 2.1); anti-dependences do not appear because the
// generated program gives every activation its own data instances.
func (d *depState) read(t graph.TaskID, key, base string) []graph.TaskID {
	var deps []graph.TaskID
	for _, k := range d.keysFor(key, base) {
		if w, ok := d.lastWrite[k]; ok && w != t {
			deps = append(deps, w)
		}
	}
	return deps
}

// write records task t writing the instance and returns the previous
// writers of overlapping keys (output dependences, which keep "last
// writer" well defined for subsequent readers).
func (d *depState) write(t graph.TaskID, key, base string, bytes int) []graph.TaskID {
	var deps []graph.TaskID
	for _, k := range d.keysFor(key, base) {
		if w, ok := d.lastWrite[k]; ok && w != t {
			deps = append(deps, w)
		}
	}
	d.lastWrite[key] = t
	d.outBytes[key] = bytes
	if key != base {
		if d.instances[base] == nil {
			d.instances[base] = make(map[string]bool)
		}
		d.instances[base][key] = true
	}
	return deps
}

// evalExpr resolves an expression to an integer using the constant and
// loop-variable environment.
func (c *compiler) evalExpr(e *Expr, env map[string]int) (int, error) {
	if e.IsNum {
		return toInt(e.Num, e)
	}
	if e.Index != nil {
		return 0, fmt.Errorf("spec:%d: indexed expression %s not allowed here", e.Line, e)
	}
	if v, ok := env[e.Name]; ok {
		return v, nil
	}
	if cst, ok := c.prog.Consts[e.Name]; ok {
		if !cst.Known {
			return 0, fmt.Errorf("spec:%d: constant %q has no value (declared as ...)", e.Line, e.Name)
		}
		return toInt(cst.Value, e)
	}
	return 0, fmt.Errorf("spec:%d: unknown name %q in constant expression", e.Line, e.Name)
}

// toInt truncates the value of e to an int; a value outside the int range
// (or NaN) is an error, not an implementation-defined conversion.
func toInt(v float64, e *Expr) (int, error) {
	if !(math.Abs(v) < 1<<63) {
		return 0, fmt.Errorf("spec:%d: %s = %g is out of the integer range", e.Line, e, v)
	}
	return int(v), nil
}

// instanceKey resolves an argument expression to its instance key and base
// name ("V[3]", "V"); literals resolve to empty keys.
func (c *compiler) instanceKey(e *Expr, env map[string]int) (key, base string, err error) {
	if e.IsNum {
		return "", "", nil
	}
	if e.Index == nil {
		// A loop variable or constant used as a value argument is a
		// literal, not a data object.
		if _, ok := env[e.Name]; ok {
			return "", "", nil
		}
		if _, ok := c.prog.Consts[e.Name]; ok {
			return "", "", nil
		}
		return e.Name, e.Name, nil
	}
	idx, err := c.evalExpr(e.Index, env)
	if err != nil {
		return "", "", err
	}
	return fmt.Sprintf("%s[%d]", e.Name, idx), e.Name, nil
}

// buildGraph constructs the M-task graph of a statement list.
func (c *compiler) buildGraph(name string, body []Stmt, env map[string]int) (*graph.Graph, error) {
	g := graph.New(name)
	d := newDepState(g)
	if err := c.emitStmts(body, env, d); err != nil {
		return nil, err
	}
	return g, nil
}

func (c *compiler) emitStmts(body []Stmt, env map[string]int, d *depState) error {
	for _, s := range body {
		if err := c.emitStmt(s, env, d); err != nil {
			return err
		}
	}
	return nil
}

// taskRange records the task ids emitted by a subtree (for the parfor
// independence check).
func (c *compiler) emitStmt(s Stmt, env map[string]int, d *depState) error {
	switch st := s.(type) {
	case *SeqStmt:
		return c.emitStmts(st.Body, env, d)
	case *CallStmt:
		return c.emitCall(st, env, d)
	case *LoopStmt:
		return c.emitLoop(st, env, d)
	case *WhileStmt:
		return c.emitWhile(st, env, d)
	default:
		return fmt.Errorf("spec: unknown statement %T", s)
	}
}

func (c *compiler) emitCall(call *CallStmt, env map[string]int, d *depState) error {
	decl, ok := c.prog.Tasks[call.Task]
	if !ok {
		return fmt.Errorf("spec:%d: activation of undeclared task %q", call.Line, call.Task)
	}
	if len(call.Args) != len(decl.Params) {
		return fmt.Errorf("spec:%d: task %q expects %d arguments, got %d",
			call.Line, call.Task, len(decl.Params), len(call.Args))
	}
	if err := c.unroll(call.Line); err != nil {
		return err
	}
	// Render the resolved activation name.
	argStrs := make([]string, len(call.Args))
	keys := make([]string, len(call.Args))
	bases := make([]string, len(call.Args))
	for i, a := range call.Args {
		key, base, err := c.instanceKey(a, env)
		if err != nil {
			return err
		}
		keys[i], bases[i] = key, base
		if key == "" {
			if a.IsNum {
				argStrs[i] = a.String()
			} else if v, ok := env[a.Name]; ok {
				argStrs[i] = fmt.Sprintf("%d", v)
			} else {
				argStrs[i] = a.String()
			}
		} else {
			argStrs[i] = key
		}
	}
	outBytes := decl.Out
	if outBytes == 0 {
		outBytes = decl.Comm
	}
	id := d.g.AddTask(&graph.Task{
		Name:      fmt.Sprintf("%s(%s)", call.Task, strings.Join(argStrs, ",")),
		Kind:      graph.KindBasic,
		Work:      decl.Work,
		CommBytes: decl.Comm,
		CommCount: boolToInt(decl.Comm > 0),
		OutBytes:  outBytes,
		MaxWidth:  decl.MaxWidth,
	})
	addDeps := func(deps []graph.TaskID, bytes int) {
		for _, dep := range deps {
			d.g.MustEdge(dep, id, bytes)
		}
	}
	// Reads first, then writes (an inout parameter reads the value the
	// previous writer produced).
	for i, p := range decl.Params {
		if keys[i] == "" {
			continue
		}
		if p.Access == In || p.Access == InOut {
			addDeps(d.read(id, keys[i], bases[i]), d.outBytes[keys[i]])
		}
	}
	for i, p := range decl.Params {
		if keys[i] == "" {
			continue
		}
		if p.Access == Out || p.Access == InOut {
			addDeps(d.write(id, keys[i], bases[i], outBytes), 0)
		}
	}
	return nil
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (c *compiler) emitLoop(loop *LoopStmt, env map[string]int, d *depState) error {
	lo, err := c.evalExpr(loop.Lo, env)
	if err != nil {
		return err
	}
	hi, err := c.evalExpr(loop.Hi, env)
	if err != nil {
		return err
	}
	if _, shadow := env[loop.Var]; shadow {
		return fmt.Errorf("spec:%d: loop variable %q shadows an enclosing loop variable", loop.Line, loop.Var)
	}
	var iterTasks [][]graph.TaskID
	for v := lo; v <= hi; v++ {
		if err := c.unroll(loop.Line); err != nil {
			return err
		}
		inner := make(map[string]int, len(env)+1)
		for k, val := range env {
			inner[k] = val
		}
		inner[loop.Var] = v
		before := d.g.Len()
		if err := c.emitStmts(loop.Body, inner, d); err != nil {
			return err
		}
		var ids []graph.TaskID
		for t := before; t < d.g.Len(); t++ {
			ids = append(ids, graph.TaskID(t))
		}
		iterTasks = append(iterTasks, ids)
	}
	// Semantic check: parfor iterations must be independent.
	if loop.Par {
		iterOf := make(map[graph.TaskID]int)
		for it, ids := range iterTasks {
			for _, id := range ids {
				iterOf[id] = it + 1
			}
		}
		for _, e := range d.g.Edges() {
			fi, ti := iterOf[e.From], iterOf[e.To]
			if fi != 0 && ti != 0 && fi != ti {
				return fmt.Errorf("spec:%d: parfor over %q has an input-output relation between iterations %d and %d (%s -> %s); use for instead",
					loop.Line, loop.Var, fi, ti, d.g.Task(e.From).Name, d.g.Task(e.To).Name)
			}
		}
	}
	return nil
}

func (c *compiler) emitWhile(w *WhileStmt, env map[string]int, d *depState) error {
	// Compile the body into a lower-level graph with its own
	// dependence scope.
	sub, err := c.buildGraph(fmt.Sprintf("while(%s)", strings.TrimSpace(w.CondText)), w.Body, env)
	if err != nil {
		return err
	}
	sub.AddStartStop()
	if err := sub.Validate(); err != nil {
		return err
	}
	// Collect the body's external variable accesses: the composed node
	// reads what the body reads and writes what the body writes.
	reads, writes := c.collectAccesses(w.Body, env)
	if w.CondVar != "" {
		reads[w.CondVar] = true
	}
	var work float64
	for _, t := range sub.Tasks() {
		work += t.Work
	}
	id := d.g.AddTask(&graph.Task{
		Name: sub.Name,
		Kind: graph.KindComposed,
		Work: work,
		Sub:  sub,
	})
	addDeps := func(deps []graph.TaskID, bytes int) {
		for _, dep := range deps {
			d.g.MustEdge(dep, id, bytes)
		}
	}
	for _, base := range sortedKeys(reads) {
		addDeps(d.read(id, base, base), d.outBytes[base])
	}
	for _, base := range sortedKeys(writes) {
		addDeps(d.write(id, base, base, 0), 0)
	}
	return nil
}

// collectAccesses walks a statement list and returns the base names read
// and written by its activations.
func (c *compiler) collectAccesses(body []Stmt, env map[string]int) (reads, writes map[string]bool) {
	reads = make(map[string]bool)
	writes = make(map[string]bool)
	var walk func(ss []Stmt)
	walk = func(ss []Stmt) {
		for _, s := range ss {
			switch st := s.(type) {
			case *SeqStmt:
				walk(st.Body)
			case *LoopStmt:
				walk(st.Body)
			case *WhileStmt:
				walk(st.Body)
				if st.CondVar != "" {
					reads[st.CondVar] = true
				}
			case *CallStmt:
				decl, ok := c.prog.Tasks[st.Task]
				if !ok || len(st.Args) != len(decl.Params) {
					continue // reported later by emitCall
				}
				for i, p := range decl.Params {
					a := st.Args[i]
					if a.IsNum {
						continue
					}
					if _, isLoop := env[a.Name]; isLoop && a.Index == nil {
						continue
					}
					if _, isConst := c.prog.Consts[a.Name]; isConst && a.Index == nil {
						continue
					}
					if p.Access == In || p.Access == InOut {
						reads[a.Name] = true
					}
					if p.Access == Out || p.Access == InOut {
						writes[a.Name] = true
					}
				}
			}
		}
	}
	walk(body)
	return reads, writes
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
