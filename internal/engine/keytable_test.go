package engine

import (
	"fmt"
	"testing"
)

// TestKeyTable: ids are dense and in first-seen order, through every growth
// of the slot array; a key that is a prefix of another, the empty key among
// them, is a key of its own; and a lookup that does not add leaves the table
// as it was.
func TestKeyTable(t *testing.T) {
	for _, hint := range []int{0, 5, 5000} {
		kt := newKeyTable(hint)
		var keys [][]byte
		for i := 0; i < 3000; i++ {
			keys = append(keys, []byte(fmt.Sprint(i)))
		}
		keys = append(keys, []byte{}, []byte("1234567"), []byte("12345678"), []byte("1\x00"), []byte("\x00"))
		for round := 0; round < 2; round++ {
			for i, k := range keys {
				id, seen := kt.id(k, true)
				if int(id) != i || seen != (round == 1) {
					t.Fatalf("hint %d round %d: key %q = id %d seen %v, want %d %v", hint, round, k, id, seen, i, round == 1)
				}
				if got := kt.arena[kt.offs[id]:kt.offs[id+1]]; string(got) != string(k) {
					t.Fatalf("hint %d: key %d = %q, want %q", hint, id, got, k)
				}
			}
		}
		if kt.len() != len(keys) {
			t.Fatalf("hint %d: len = %d, want %d", hint, kt.len(), len(keys))
		}
		for _, k := range []string{"3000", "123456789", "\x00\x00", "1\x00\x00"} {
			if id, seen := kt.id([]byte(k), false); id != -1 || seen {
				t.Errorf("hint %d: absent key %q = %d %v", hint, k, id, seen)
			}
		}
		if kt.len() != len(keys) {
			t.Errorf("hint %d: a lookup without add grew the table to %d", hint, kt.len())
		}
	}
}

// TestKeyTableReset: an emptied table numbers from 0 again, finds none of
// the keys it held and keeps its slot array; emptying a table that was never
// made leaves it as it was.
func TestKeyTableReset(t *testing.T) {
	kt := newKeyTable(0)
	for i := 0; i < 100; i++ {
		kt.id([]byte(fmt.Sprint(i)), true)
	}
	slots := len(kt.slots)
	kt.reset()
	if kt.len() != 0 || len(kt.slots) != slots {
		t.Fatalf("after reset: %d keys in %d slots, want 0 in %d", kt.len(), len(kt.slots), slots)
	}
	for i := 0; i < 100; i++ {
		if id, seen := kt.id([]byte(fmt.Sprint(i)), false); id != -1 || seen {
			t.Fatalf("after reset: key %d = %d %v", i, id, seen)
		}
	}
	for i, k := range []string{"99", "x", "0"} {
		if id, seen := kt.id([]byte(k), true); int(id) != i || seen {
			t.Errorf("after reset: key %q = id %d seen %v, want %d false", k, id, seen, i)
		}
	}
	var zero keyTable
	zero.reset()
	if zero.offs != nil || zero.slots != nil || zero.arena != nil {
		t.Errorf("reset of the zero keyTable made %+v", zero)
	}
}
