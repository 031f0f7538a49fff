package replication

// CoBlock exposes object k's co-demander block to the external tests.
func (p *Problem) CoBlock(k int32) []int32 { return p.coBlock(k) }
