package sim

// NewEngineHeap returns an engine whose entire queue is the reference
// 4-ary heap, with the timing wheel disabled. Both schedulers honour the
// same (at, seq) ordering contract; this one exists so differential
// tests and BenchmarkEngineSchedulePop can pit them against each other.
func NewEngineHeap() *Engine {
	e := &Engine{}
	e.queue.init(false)
	return e
}
