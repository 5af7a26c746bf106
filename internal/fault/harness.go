package fault

// Harness interposes the injector between a workload driver and its
// store: before every operation it advances the injector to the store's
// current virtual time, so scheduled faults fire exactly when the
// simulation clock passes them. It satisfies workload.Store, Deleter
// and Scanner; a delete or scan the wrapped store cannot serve falls
// back the way workload.Run's own fallback does.
type Harness struct {
	store harnessStore
	inj   *Injector
}

// harnessStore is the store surface the harness wraps (a superset of
// workload.Store; Delete and Scan are optional, see those methods).
type harnessStore interface {
	Read(key uint64)
	Write(key uint64)
	FinishEpoch()
	Clock() float64
	KeySpace() int
}

// scanner is the optional range-scan surface (workload.Scanner).
type scanner interface {
	Scan(start uint64, limit int) int
}

// NewHarness wraps store so inj observes the clock before each op.
func NewHarness(store harnessStore, inj *Injector) *Harness {
	return &Harness{store: store, inj: inj}
}

// Read advances the injector, then forwards the read.
func (h *Harness) Read(key uint64) {
	h.inj.Advance(h.store.Clock())
	h.store.Read(key)
}

// Write advances the injector, then forwards the write.
func (h *Harness) Write(key uint64) {
	h.inj.Advance(h.store.Clock())
	h.store.Write(key)
}

// Delete advances the injector, then forwards the delete when the
// wrapped store supports it and falls back to a write otherwise.
func (h *Harness) Delete(key uint64) {
	h.inj.Advance(h.store.Clock())
	if d, ok := h.store.(interface{ Delete(key uint64) }); ok {
		d.Delete(key)
		return
	}
	h.store.Write(key)
}

// Scan advances the injector, then forwards the scan when the wrapped
// store supports it and falls back to a point read otherwise.
func (h *Harness) Scan(start uint64, limit int) int {
	h.inj.Advance(h.store.Clock())
	if s, ok := h.store.(scanner); ok {
		return s.Scan(start, limit)
	}
	h.store.Read(start)
	return 0
}

// FinishEpoch forwards epoch accounting.
func (h *Harness) FinishEpoch() { h.store.FinishEpoch() }

// Clock returns the wrapped store's virtual time.
func (h *Harness) Clock() float64 { return h.store.Clock() }

// KeySpace returns the wrapped store's key space.
func (h *Harness) KeySpace() int { return h.store.KeySpace() }
