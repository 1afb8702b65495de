package maglev

// Backends returns the backend names in table order.
func (t *Table) Backends() []string {
	return append([]string(nil), t.backends...)
}

// Size returns the table size.
func (t *Table) Size() uint64 { return t.size }

// Distribution returns how many table positions each backend owns,
// keyed by backend name.
func (t *Table) Distribution() map[string]int {
	d := make(map[string]int, len(t.backends))
	for _, idx := range t.entries {
		d[t.backends[idx]]++
	}
	return d
}
