package engine

import "hash/maphash"

var hashSeed = maphash.MakeSeed()

// keyTable maps an encoded key to a dense id, numbered in first-seen order
// (DESIGN.md ADR-044): the group operator's group ids (DISTINCT included),
// a hashIndex's bucket numbers (a table's persistent index and a join's
// transient build), an IN subquery's set and the IMMUTABLE result cache's
// calls (udfResults, ADR-045). It is one open-addressed, linearly probed slot
// array, at most 3/4 full, of hash tag and id, with the keys back to back in
// one arena: it holds no pointer, so the collector does not scan it and a key
// adds no object. A table that is only probed is safe for concurrent use.
type keyTable struct {
	slots []keySlot
	offs  []uint32 // key id is arena[offs[id]:offs[id+1]]
	arena []byte
}

// keySlot is a slot: the low half of its key's hash, which also places it,
// so growing rehashes no key, and the key's id + 1, 0 in a free slot.
type keySlot struct {
	tag uint32
	id  int32
}

// keyEntryBytes is what one key costs a keyTable beyond its bytes: its
// offset and, at the lowest load a grown table has (3/8), 8/3 slots.
const keyEntryBytes = 4 + 8*8/3

// newKeyTable sizes a table for n keys. The zero keyTable (a closed group
// operator's) has no slot to probe: make a table with newKeyTable first.
func newKeyTable(n int) keyTable {
	t := keyTable{offs: []uint32{0}}
	t.grow(n)
	return t
}

func (t *keyTable) len() int { return len(t.offs) - 1 }

// reset empties the table and keeps its room: ids restart at 0. A table that
// was never made (the zero keyTable) stays as it is.
func (t *keyTable) reset() {
	if t.offs == nil {
		return
	}
	clear(t.slots)
	t.offs, t.arena = t.offs[:1], t.arena[:0]
}

// id returns the id of key and whether the table held it. A key it does not
// hold is added under the next id when add is set, and answers -1 otherwise.
func (t *keyTable) id(key []byte, add bool) (int32, bool) {
	tag, mask := uint32(maphash.Bytes(hashSeed, key)), uint32(len(t.slots)-1)
	i := tag & mask
	for ; t.slots[i].id != 0; i = (i + 1) & mask {
		if s := t.slots[i]; s.tag == tag && string(t.arena[t.offs[s.id-1]:t.offs[s.id]]) == string(key) {
			return s.id - 1, true
		}
	}
	if !add {
		return -1, false
	} else if int64(len(t.arena)+len(key)) >= 1<<32 { // offs are uint32
		panic("engine: a key table holds at most 4 GiB of keys")
	}
	t.arena = append(t.arena, key...)
	t.offs = append(t.offs, uint32(len(t.arena)))
	t.slots[i] = keySlot{tag: tag, id: int32(t.len())}
	t.grow(t.len())
	return int32(t.len() - 1), false
}

// grow re-slots the table for n keys at a load of at most 3/4 if it must.
func (t *keyTable) grow(n int) {
	size := max(len(t.slots), 8)
	for 4*n > 3*size {
		size *= 2
	}
	if size == len(t.slots) {
		return
	}
	old, mask := t.slots, uint32(size-1)
	t.slots = make([]keySlot, size)
	for _, s := range old {
		if s.id == 0 {
			continue
		}
		i := s.tag & mask
		for t.slots[i].id != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
