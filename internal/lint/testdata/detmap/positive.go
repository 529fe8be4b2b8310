// Seeded violations of the detmap invariant: map iteration order reaching
// an output path — the silent killer of byte-identical differential runs.
package fixture

type Batch struct {
	rows [][]int64
}

type exec struct{}

type Operator interface {
	Open(ex *exec) error
	Next(ex *exec) (*Batch, error)
	Close()
}

func emitKeys(m map[string]int64) []string {
	var out []string
	for k := range m { // want "leaks iteration order"
		out = append(out, k)
	}
	return out
}

func sumFloats(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want "leaks iteration order"
		sum += v
	}
	return sum
}

func concatNames(m map[string]int64) string {
	s := ""
	for k := range m { // want "leaks iteration order"
		s += k
	}
	return s
}

// The shape of the o3 bug: the select list of a rewritten query appended to
// through a struct field, once per entry of a map of per-aggregate plans.
type selectList struct {
	items []string
}

func emitPlans(inner *selectList, plans map[string][]string) {
	for _, plan := range plans { // want "leaks iteration order"
		inner.items = append(inner.items, plan...)
	}
}
