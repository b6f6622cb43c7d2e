package runtime

// WithWavefront switches ExecuteCtx / ExecuteHierarchicalCtx from
// layer-synchronous execution to dependence-driven (wavefront) execution.
//
// Both modes run the same dispatcher; they differ in the width of its
// passes. Layered execution runs one pass per layer, so every group of a
// layer is joined before any task of the next layer may start and one
// slow group idles all P cores even when successor tasks' inputs are
// complete and their ranks are free. The layer barrier is a scheduling
// artifact, not a data dependence: wavefront execution runs all layers in
// one pass, launching a task as soon as (a) all of its predecessors in
// the scheduled graph have completed and (b) every symbolic rank of its
// group's interval has been released by its prior-layer occupant (the
// precomputed core.PrecedenceOf metadata encodes both conditions as one
// counter per task). Results are bitwise identical: the same task bodies
// run on the same group intervals with the same group collectives; only
// the launch times change.
//
// Bodies see the same TaskCtx in both modes, and per-task fault handling
// is the same — retries with backoff, panic isolation, per-attempt
// timeouts and abort poisoning. One difference follows from the missing
// layer scope: fault.Policy.LayerTimeout is ignored, as there is no
// per-layer scope to attach the deadline to. TaskTimeout still applies
// per attempt.
//
// Degrade-and-replan keeps its checkpoint semantics: on an exhausted
// failure the dispatcher stops launching, drains the in-flight frontier,
// and reports the completed-layer prefix as the resume point — exactly the
// last completed layer barrier of the layered mode, so core.SameLayering
// replans resume identically. Bodies must be idempotent (as in layered
// mode): a task past the checkpoint may have completed during the drain
// and will run again after the replan.
func WithWavefront() ExecOption {
	return func(c *execConfig) { c.wavefront = true }
}
