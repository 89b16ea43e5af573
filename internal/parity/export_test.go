package parity

import "repro/internal/fault"

// PrivateFor reports whether Add(r) on st's current live set would take
// the private-projection rule, leaving st unchanged.
func (st *State) PrivateFor(r fault.Region) bool {
	ok := st.private(st.push(&r))
	st.live = st.live[:len(st.live)-1]
	return ok
}
