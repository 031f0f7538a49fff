package cluster

import (
	"repro/internal/online"
)

// The RPC vocabulary. Every daemon answers "ping"; shards additionally serve
// the regional-game methods the coordinator drives.
const (
	MethodPing    = "ping"
	MethodAssign  = "assign"
	MethodDeltas  = "deltas"
	MethodSolve   = "solve"
	MethodMetrics = "metrics"
)

// PingRequest is the health probe.
type PingRequest struct{}

// PingReply answers a probe. A probe is judged only by whether the reply
// arrives, so it carries nothing.
type PingReply struct{}

// AssignRequest ships a region to a shard: the mirror's state masked to the
// region's members, and the members' share of the current merged placement
// to carry over (so a freshly assigned shard starts from the merged
// placement instead of primaries). Every id is the mirror's.
type AssignRequest struct {
	// Version is the coordinator's assignment generation; a shard rejects
	// versions at or below the one it already runs (stale re-sends).
	Version uint64         `json:"version"`
	Region  *online.Region `json:"region"`
	// Carry holds one replica list per object, restricted to the region's
	// members (Region.Carry).
	Carry [][]int32 `json:"carry,omitempty"`
}

// AssignReply acknowledges an installed assignment; its arrival is the
// acknowledgement. The shard counts the carried replicas its masked
// instance could not hold in its own metrics (carried_drops).
type AssignReply struct{}

// DeltasRequest forwards a delta sub-batch to the owning shard.
type DeltasRequest struct {
	// Assign pins the assignment generation the batch was routed under; a
	// shard on a different generation rejects it (the coordinator re-syncs
	// by re-assigning).
	Assign uint64         `json:"assign"`
	Deltas []online.Delta `json:"deltas"`
}

// DeltasReply acknowledges an applied sub-batch. The mirror already
// published the batch's epoch, so the coordinator needs no more than the
// arrival.
type DeltasReply struct{}

// SolveRequest asks a shard to run its regional game now.
type SolveRequest struct{}

// SolveReply is a region's outcome: everything the coordinator's merge
// consumes, in the mirror's ids, each fact once. The merge bounds every id
// itself (see Coordinator.merge), since a reply arrives over RPC. A
// coordinator and its shards must run the same build: a coordinator that
// expects the placement anywhere but in Border merges the reply as
// primaries only.
type SolveReply struct {
	// Assign is the assignment generation the solve ran under; the
	// coordinator discards replies from a different generation (their
	// placement is of another partition).
	Assign uint64 `json:"assign"`
	// Border is the region's placement: it lists every surplus replica the
	// region placed, in (object, server) order, each with its reserve price
	// for the merge's boundary exchange. Primaries are implicit.
	Border []BorderAd `json:"border,omitempty"`
	// Payments are the regional game's payments, indexed by server.
	Payments []int64 `json:"payments,omitempty"`
	// ElapsedNs is the wall-clock the regional solve took shard-side — the
	// per-phase benchmark's regional-solve component, free of RPC overhead
	// and of building this reply.
	ElapsedNs int64 `json:"elapsed_ns"`
}

// BorderAd advertises one surplus replica a region placed, with the
// region's reserve price for it: Gain is the regional cost increase if the
// replica were removed (its local marginal value). The merge's
// boundary-replica exchange uses the ads to decide which replicas are
// redundant once every region's placement is visible — the cross-region
// savings isolated regional games leave on the table.
type BorderAd struct {
	Object int32 `json:"object"`
	Server int32 `json:"server"`
	Gain   int64 `json:"gain"`
}

// MetricsRequest pulls a shard's controller metrics for aggregation.
type MetricsRequest struct{}

// MetricsReply is one shard's contribution to its row in GET /cluster.
// Members counts the region's member servers.
type MetricsReply struct {
	Assign  uint64         `json:"assign"`
	Mode    string         `json:"mode"`
	Members int            `json:"members"`
	Metrics online.Metrics `json:"metrics"`
}
