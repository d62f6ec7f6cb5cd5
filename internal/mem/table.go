package mem

import "math/bits"

// Table is the simulator's one hash table for small, short-lived sets keyed
// by a uint64: the in-flight fetches of a Fetches file (the stand-in for an
// MSHR file's CAM), in-flight swap lines, PageSeer's in-flight pages, the
// exchange core's busy slots and PoM's counters.
// It is open-addressed, with linear probing from a Fibonacci-hash home
// slot. It doubles at half load, so it is unbounded, and deletion shifts
// later members of the probe run back rather than leaving tombstones, so a
// lookup never probes past slots that are only formerly occupied. The zero
// value is an empty table; the first Put allocates.
//
// Keys must differ from ^uint64(0): a slot stores key+1, and 0 marks it
// empty.
type Table[V any] struct {
	slots []tableSlot[V] // power-of-two length once the first key arrives
	shift uint           // 64 - log2(len(slots)): home is the hash's top bits
	n     int            // live keys
}

type tableSlot[V any] struct {
	key uint64 // key+1; 0 = empty
	val V
}

// tableMin is a table's initial size in slots.
const tableMin = 16

// fibMul is 2^64 divided by the golden ratio, the Fibonacci-hash multiplier.
const fibMul = 0x9e3779b97f4a7c15

// home is the slot key's probe run starts at. The top bits of a Fibonacci
// hash spread strided keys (line numbers, page numbers) across the table.
func (t *Table[V]) home(key uint64) int {
	return int(key * fibMul >> t.shift)
}

// Len returns the number of keys present.
func (t *Table[V]) Len() int { return t.n }

// probe returns the slot holding key, or the empty slot that ends key's
// probe run (half the slots at least are empty, so there is one). The
// table must have slots.
func (t *Table[V]) probe(key uint64) (i int, found bool) {
	mask := len(t.slots) - 1
	for i = t.home(key); ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case key + 1:
			return i, true
		case 0:
			return i, false
		}
	}
}

// find returns key's slot index, or -1.
func (t *Table[V]) find(key uint64) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	i := int(key * fibMul >> t.shift) // home(key), spelled out to keep Get inlinable
	for t.slots[i].key != key+1 {
		if t.slots[i].key == 0 {
			return -1
		}
		i = (i + 1) & mask
	}
	return i
}

// Get returns key's value and whether key is present.
func (t *Table[V]) Get(key uint64) (v V, ok bool) {
	i := t.find(key)
	if i < 0 {
		return
	}
	return t.slots[i].val, true
}

// Has reports whether key is present.
func (t *Table[V]) Has(key uint64) bool { return t.find(key) >= 0 }

// Ref returns a pointer to key's value, or nil when key is absent. The
// pointer is valid until the next Put or Del.
func (t *Table[V]) Ref(key uint64) *V {
	if i := t.find(key); i >= 0 {
		return &t.slots[i].val
	}
	return nil
}

// Put sets key's value, adding key if it is absent.
func (t *Table[V]) Put(key uint64, v V) {
	if len(t.slots) > 0 {
		i, ok := t.probe(key)
		if ok {
			t.slots[i].val = v
			return
		}
		if 2*(t.n+1) <= len(t.slots) {
			t.slots[i] = tableSlot[V]{key: key + 1, val: v}
			t.n++
			return
		}
	}
	t.grow()
	i, _ := t.probe(key)
	t.slots[i] = tableSlot[V]{key: key + 1, val: v}
	t.n++
}

func (t *Table[V]) grow() {
	old := t.slots
	size := 2 * len(old)
	if size == 0 {
		size = tableMin
	}
	t.slots = make([]tableSlot[V], size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.key != 0 {
			i, _ := t.probe(s.key - 1)
			t.slots[i] = s
		}
	}
}

// Del removes key, returning its value and whether it was present. Each
// later member of the probe run whose home does not lie cyclically in
// (hole, its slot] moves back into the hole, so every remaining key stays
// reachable from its home without crossing an empty slot.
func (t *Table[V]) Del(key uint64) (V, bool) {
	hole := t.find(key)
	if hole < 0 {
		var zero V
		return zero, false
	}
	v := t.slots[hole].val
	mask := len(t.slots) - 1
	t.slots[hole] = tableSlot[V]{}
	t.n--
	for j := (hole + 1) & mask; t.slots[j].key != 0; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].key-1))&mask >= (j-hole)&mask {
			t.slots[hole], t.slots[j] = t.slots[j], tableSlot[V]{}
			hole = j
		}
	}
	return v, true
}

// Clear removes every key, keeping the slots for reuse.
func (t *Table[V]) Clear() {
	if t.n == 0 {
		return
	}
	clear(t.slots)
	t.n = 0
}

// Each calls f with every key and its value, in slot order: the same
// sequence of Puts and Dels always yields the same order. f must not Put
// or Del.
func (t *Table[V]) Each(f func(key uint64, v V)) {
	for _, s := range t.slots {
		if s.key != 0 {
			f(s.key-1, s.val)
		}
	}
}
