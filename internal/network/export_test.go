package network

// DisableFastPath forces the general arbitration loop even at
// WordsPerCyc==1, so tests can prove the fast path bit-equivalent.
func (x *Crossbar) DisableFastPath() { x.noFastPath = true }
