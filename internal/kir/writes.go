package kir

// WrittenParams reports, for each buffer parameter of the compiled
// kernel in argument order, whether the program contains a store to it.
// The lowerer marks a parameter as it emits each store, and value
// numbering never moves or drops a store, so the set is exact: a
// parameter not marked here can never be mutated by Run. The incremental
// trial evaluator uses this to snapshot only the buffers a kernel launch
// may have changed. The slice is shared; callers must not modify it.
func (p *Program) WrittenParams() []bool { return p.writes }
