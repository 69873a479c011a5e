package solve

import "fmt"

// CheckAliases verifies the alias index against the entries: every bound
// alias names a live, committed entry that lists it, and the accounted
// bytes are the sum of the live entries' sizes, alias bytes included.
func (s *Session) CheckAliases() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for key, e := range s.aliases {
		if e.evicted || !e.accounted || s.problems[e.key] != e {
			return fmt.Errorf("alias %q names an entry that is not live", key)
		}
		listed := false
		for _, a := range e.aliases {
			listed = listed || a == key
		}
		if !listed {
			return fmt.Errorf("alias %q is missing from its entry's list", key)
		}
	}
	var sum int64
	for _, e := range s.problems {
		if e.accounted {
			sum += e.size
		}
	}
	if sum != s.bytes {
		return fmt.Errorf("entries account %d bytes, the session %d", sum, s.bytes)
	}
	return nil
}
