package replication

// CoBlock exposes object k's co-demander block to the external tests.
func (p *Problem) CoBlock(k int32) []int32 { return p.coBlock(k) }

// MappedSubset builds SubsetCost's virtual view directly: SubsetCost only
// picks it past maxSubsetGather cells, far beyond a test-sized region.
func MappedSubset(base CostFn, ids []int32) CostFn {
	return &mappedSubset{base: base, ids: append([]int32(nil), ids...)}
}
