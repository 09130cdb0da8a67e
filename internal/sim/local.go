package sim

// localKey is the key of an Env's value of type T: a distinct type per T, so
// the keys of two types never meet, and zero-sized, so making one into an
// interface allocates nothing.
type localKey[T any] struct{}

// Local returns e's value of type T, a zero T made on first use. Everything
// that runs in one partition shares it and another Env has its own, so a
// structure that serves a partition's many owners — a free list of records,
// say — retains one partition's peak rather than the sum of its owners'
// peaks. Like the rest of an Env it belongs to whoever runs the Env; look it
// up once, at construction, and keep the pointer.
func Local[T any](e *Env) *T {
	if v, ok := e.locals[localKey[T]{}]; ok {
		return v.(*T)
	}
	if e.locals == nil {
		e.locals = make(map[any]any)
	}
	v := new(T)
	e.locals[localKey[T]{}] = v
	return v
}
