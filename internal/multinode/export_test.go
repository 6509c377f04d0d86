package multinode

// buildAll builds every node's memory side up front, the way New built it
// before nodes built it at first touch: the reference that the first-touch
// tests compare a replay against.
func (s *System) buildAll() {
	for _, n := range s.nodes {
		s.touch(n)
	}
}

// built returns the ids of the nodes whose memory side has been built.
func (s *System) built() []int {
	var ids []int
	for _, n := range s.nodes {
		if n.mem != nil {
			ids = append(ids, n.id)
		}
	}
	return ids
}
