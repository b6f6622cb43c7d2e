package runtime

// WithWavefront switches ExecuteCtx / ExecuteHierarchicalCtx from
// layer-synchronous execution to dependence-driven (wavefront) execution.
//
// Both modes run the same dispatcher, one pass of P persistent workers;
// they differ in one launch condition. Layered execution opens a layer
// only once every task of the layers before it has completed, so one slow
// group idles all P cores even when successor tasks' inputs are complete
// and their ranks are free. That barrier is a scheduling artifact, not a
// data dependence: wavefront execution opens every layer at the start and
// launches a task as soon as (a) its predecessors in the scheduled graph
// have completed and (b) its group's ranks have been released by their
// prior-layer occupants (one core.PrecedenceOf counter per task). Results
// are bitwise identical; only the launch times change.
//
// Bodies see the same TaskCtx in both modes, and per-task fault handling
// is the same — retries with backoff, panic isolation, per-attempt
// timeouts and abort poisoning. fault.Policy.LayerTimeout is ignored, as
// there is no layer scope to attach it to; TaskTimeout still applies.
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
