package sim

// localKey is the key of an Env's value of type T: a distinct type per T, so
// the keys of two types never meet, and zero-sized, so making one into an
// interface allocates nothing.
type localKey[T any] struct{}

// ledger is what Local registers: a FreeList, or a type that embeds one.
type ledger interface {
	tally() (account string, out int)
}

// Local returns e's value of type T, a zero T made on first use. Everything
// that runs in one partition shares it and another Env has its own, so a
// structure that serves a partition's many owners — a free list of records,
// say — retains one partition's peak rather than the sum of its owners'
// peaks. A T that is a FreeList, or embeds one, is registered with e as it
// is made, for RecordsOut. Like the rest of an Env it belongs to whoever runs
// the Env; look it up once, at construction, and keep the pointer.
func Local[T any](e *Env) *T {
	if v, ok := e.locals[localKey[T]{}]; ok {
		return v.(*T)
	}
	if e.locals == nil {
		e.locals = make(map[any]any)
	}
	v := new(T)
	e.locals[localKey[T]{}] = v
	if l, ok := any(v).(ledger); ok {
		e.ledgers = append(e.ledgers, l)
	}
	return v
}

// RecordsOut lists, in the order Local made them, the accounts of the
// registered free lists whose records are not all back: made is not listed
// plus abandoned. A drained run leaves it empty.
func (e *Env) RecordsOut() (list []string) {
	for _, l := range e.ledgers {
		if account, out := l.tally(); out != 0 {
			list = append(list, account)
		}
	}
	return list
}
