package bluestore

import "hash/maphash"

// collection is one collection's object index: a table of name keys, each 32
// bits of a hash of the name computed once per call, open-addressed (linear
// probing, at most three quarters full) over two arrays. A slot holds a key
// and the head of the chain of onodes whose names share it, linked through
// onode.next; a lookup compares the names along the chain, so a collision
// costs a longer walk, never a wrong object. Growing the table moves keys, it
// never reads a name again. The table decides no order anyone sees: Names and
// DataObjects sort what each collects.
type collection struct {
	keys  []uint32 // 0 marks an empty slot
	heads []*onode
	// used counts the slots in use and count the objects held.
	used, count int
}

var nameSeed = maphash.MakeSeed()

// keyHook, set by tests alone, replaces the name hash so that they can make
// names collide or share a probe run.
var keyHook func(name string) uint32

// nameKey is the name's key, never 0.
func nameKey(name string) uint32 {
	var h uint32
	if keyHook != nil {
		h = keyHook(name)
	} else {
		h = uint32(maphash.String(nameSeed, name) >> 32)
	}
	return h | 1
}

// home is the slot a key's probe run starts at.
func (c *collection) home(k uint32) int { return int(k>>1) & (len(c.keys) - 1) }

// slot returns the slot holding key k, or the empty one where it would go.
func (c *collection) slot(k uint32) int {
	mask := len(c.keys) - 1
	for i := c.home(k); ; i = (i + 1) & mask {
		if c.keys[i] == k || c.keys[i] == 0 {
			return i
		}
	}
}

// get returns the object named name, or nil.
func (c *collection) get(name string) *onode {
	if len(c.keys) == 0 {
		return nil
	}
	for o := c.heads[c.slot(nameKey(name))]; o != nil; o = o.next {
		if o.name == name {
			return o
		}
	}
	return nil
}

// getOrCreate returns the object named name, creating it at the head of its
// chain if there is none.
func (c *collection) getOrCreate(name string) *onode {
	k := nameKey(name)
	if len(c.keys) == 0 {
		c.grow()
	}
	i := c.slot(k)
	for o := c.heads[i]; o != nil; o = o.next {
		if o.name == name {
			return o
		}
	}
	if c.keys[i] == 0 {
		if 4*(c.used+1) > 3*len(c.keys) {
			c.grow()
			i = c.slot(k)
		}
		c.keys[i] = k
		c.used++
	}
	o := newOnode()
	o.name, o.next = name, c.heads[i]
	c.heads[i] = o
	c.count++
	return o
}

// grow doubles the table (the first one has 8 slots) and moves every slot
// over.
func (c *collection) grow() {
	keys, heads := c.keys, c.heads
	n := max(8, 2*len(keys))
	c.keys, c.heads = make([]uint32, n), make([]*onode, n)
	for i, k := range keys {
		if k != 0 {
			j := c.slot(k)
			c.keys[j], c.heads[j] = k, heads[i]
		}
	}
}

// remove unlinks the object named name and returns it, or nil if there is
// none.
func (c *collection) remove(name string) *onode {
	if len(c.keys) == 0 {
		return nil
	}
	i := c.slot(nameKey(name))
	var prev *onode
	for o := c.heads[i]; o != nil; prev, o = o, o.next {
		if o.name != name {
			continue
		}
		switch {
		case prev != nil:
			prev.next = o.next
		case o.next != nil:
			c.heads[i] = o.next
		default:
			c.empty(i)
		}
		o.next = nil
		c.count--
		return o
	}
	return nil
}

// empty frees slot i and moves each later slot of its probe run whose home
// does not lie between the hole and it back into the hole, so that every
// lookup still reaches every key without crossing an empty slot.
func (c *collection) empty(i int) {
	mask := len(c.keys) - 1
	for j := (i + 1) & mask; c.keys[j] != 0; j = (j + 1) & mask {
		if (j-c.home(c.keys[j]))&mask >= (j-i)&mask {
			c.keys[i], c.heads[i] = c.keys[j], c.heads[j]
			i = j
		}
	}
	c.keys[i], c.heads[i] = 0, nil
	c.used--
}

// each calls fn on every object, in no particular order.
func (c *collection) each(fn func(o *onode)) {
	for _, head := range c.heads {
		for o := head; o != nil; o = o.next {
			fn(o)
		}
	}
}
