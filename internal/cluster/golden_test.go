package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"repro/internal/online"
	"repro/internal/replication"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// mergeStep is one cluster solve's merged outcome: the installed OTC, the
// surplus replica count and an FNV-64a hash of the summed payment vector.
type mergeStep struct {
	otc      int64
	replicas int
	payments uint64
}

// mergeGoldens were recorded on the compacting cluster, before regions
// became masks of the mirror in global ids: the id space a region speaks
// must not move a single merge. Each row is one solve of mergeTrace.
var mergeGoldens = map[int][]mergeStep{
	2: {
		{988467, 586, 0xb1c746940a87c392},
		{1123792, 722, 0xb48c6d42a0d75d33},
		{1176300, 742, 0x79c486081bdc349c},
		{1185594, 767, 0xb807f554c4a45b63},
		{1217944, 767, 0xa9a25ccdb6b343a5},
		{1185594, 767, 0xb807f554c4a45b63},
		{1176300, 742, 0x79c486081bdc349c},
		{1123792, 722, 0xb48c6d42a0d75d33},
		{988467, 586, 0xb1c746940a87c392},
		{1010759, 614, 0x1449883e03ff1cca},
		{1032988, 624, 0x186fe711413db7f2},
		{1051903, 628, 0x45da1dfee80f3118},
		{1062280, 629, 0x72b1520fe75475b},
		{1066023, 633, 0x1422d38bf834971c},
		{1067479, 633, 0x4279c8acb3c06f53},
		{1066023, 633, 0x1422d38bf834971c},
		{1062280, 629, 0x72b1520fe75475b},
		{1051903, 628, 0x45da1dfee80f3118},
		{1032988, 624, 0x186fe711413db7f2},
		{1010759, 614, 0x1449883e03ff1cca},
		{988467, 586, 0xb1c746940a87c392},
		{1241614, 835, 0x88d6a072d848c71b},
		{942798, 764, 0x6b38b77d41e103af},
		{1097458, 805, 0xec82cda7a3e8e8cd},
		{1097458, 805, 0xec82cda7a3e8e8cd},
		{942798, 764, 0x6b38b77d41e103af},
		{900791, 792, 0x18a9a7fe86c9cb42},
		{831787, 681, 0x5e92ff96a29067e3},
		{881241, 757, 0x8d1fc7ad27e4d88},
		{831787, 681, 0x5e92ff96a29067e3},
		{839341, 741, 0x31f51433f9850226},
		{790504, 666, 0x4055a9f04b22415a},
		{790504, 666, 0x4055a9f04b22415a},
		{1126718, 683, 0x73ed9f4015be8372},
		{1321160, 677, 0xcef4987338bd6995},
		{1505975, 657, 0x1209ab7f5e36b674},
		{1690103, 655, 0x49593ac652feac4c},
		{1505975, 657, 0x1209ab7f5e36b674},
		{1321160, 677, 0xcef4987338bd6995},
		{1126718, 683, 0x73ed9f4015be8372},
		{790504, 666, 0x4055a9f04b22415a},
		{807324, 673, 0xbecbcefbc1735c0f},
		{814754, 680, 0x4cbe79279e7ffb0},
		{812814, 684, 0x6c3507f99f52733f},
		{815714, 684, 0x5411b38342cf72a2},
		{816904, 683, 0xe6d2d51288e1af44},
		{817528, 683, 0x1715f3c6d0fc7be5},
		{816904, 683, 0xe6d2d51288e1af44},
		{815714, 684, 0x5411b38342cf72a2},
		{812814, 684, 0x6c3507f99f52733f},
		{814754, 680, 0x4cbe79279e7ffb0},
		{807324, 673, 0xbecbcefbc1735c0f},
		{790504, 666, 0x4055a9f04b22415a},
		{1100211, 800, 0x1252d98d59969d60},
		{942161, 677, 0x81e56280cd8df787},
		{1079433, 654, 0xf1af103a7ab110b8},
		{1079433, 654, 0xf1af103a7ab110b8},
		{942161, 677, 0x81e56280cd8df787},
		{913464, 734, 0x8cdcbf1a9d2ea3db},
		{835300, 600, 0x3501f22fc9213679},
		{802837, 684, 0xb42bd336c300741f},
		{741026, 560, 0x5d8d20a10254f241},
		{788384, 669, 0x4b14e33ff63a02d3},
		{656700, 542, 0x668ff50e130c2d8b},
		{656700, 542, 0x668ff50e130c2d8b},
	},
	3: {
		{988074, 585, 0xfd31c75d54e18604},
		{1128974, 727, 0x40d295e8fc78c634},
		{1177627, 731, 0xe7687aa25561601a},
		{1182581, 767, 0x304068e7591b6d80},
		{1215381, 767, 0x576c9a8de8cad82c},
		{1182581, 767, 0x304068e7591b6d80},
		{1177627, 731, 0xe7687aa25561601a},
		{1128974, 727, 0x40d295e8fc78c634},
		{988074, 585, 0xfd31c75d54e18604},
		{1010555, 615, 0xe888d186bda25ec2},
		{1032728, 629, 0x78ea1546ac1342aa},
		{1051911, 633, 0x136d9282d806ae05},
		{1061212, 633, 0xa9ca25fabd3b2378},
		{1065245, 633, 0xc2e795fa3692e0d0},
		{1066662, 633, 0x2ef1afdf80c63ba5},
		{1065245, 633, 0xc2e795fa3692e0d0},
		{1061212, 633, 0xa9ca25fabd3b2378},
		{1051911, 633, 0x136d9282d806ae05},
		{1032728, 629, 0x78ea1546ac1342aa},
		{1010555, 615, 0xe888d186bda25ec2},
		{988074, 585, 0xfd31c75d54e18604},
		{1238526, 851, 0x4e1fd7369f8e59b5},
		{946978, 748, 0xbd1263cdbdc2502f},
		{1104353, 785, 0x4bbd4bfdd02cc9e2},
		{1104353, 785, 0x4bbd4bfdd02cc9e2},
		{946978, 748, 0xbd1263cdbdc2502f},
		{905660, 788, 0x152de30033b5e10b},
		{832447, 690, 0xe8b7390b425b0306},
		{883746, 752, 0x68781a792586a1c2},
		{832447, 690, 0xe8b7390b425b0306},
		{842387, 742, 0x49868d2159ff48e2},
		{791996, 676, 0xcad103a61d5f1296},
		{791996, 676, 0xcad103a61d5f1296},
		{1122158, 706, 0x9ba7c51429ab5185},
		{1353241, 679, 0x38a252d5c545ffe5},
		{1562963, 670, 0x4e6238a1500bb5b2},
		{1763650, 670, 0x9aef2dc036579cac},
		{1562963, 670, 0x4e6238a1500bb5b2},
		{1353241, 679, 0x38a252d5c545ffe5},
		{1122158, 706, 0x9ba7c51429ab5185},
		{791996, 676, 0xcad103a61d5f1296},
		{808754, 682, 0x82e3802798a51b9a},
		{818082, 682, 0xf467b76863e4bacc},
		{821140, 681, 0x54525ce3b4b1b14a},
		{823714, 681, 0x219f8016f570ab7c},
		{825266, 682, 0x11bcc5907aea92ef},
		{825872, 684, 0xb5c0012a0e74190d},
		{825266, 682, 0x11bcc5907aea92ef},
		{823714, 681, 0x219f8016f570ab7c},
		{821140, 681, 0x54525ce3b4b1b14a},
		{818082, 682, 0xf467b76863e4bacc},
		{808754, 682, 0x82e3802798a51b9a},
		{791996, 676, 0xcad103a61d5f1296},
		{1102195, 815, 0xd4bd52da6ca8039b},
		{941264, 691, 0x66d813487fa0ab98},
		{1082275, 682, 0xa07a909959f4afc3},
		{1082275, 682, 0xa07a909959f4afc3},
		{941264, 691, 0x66d813487fa0ab98},
		{908131, 763, 0x4208b733a3c861ed},
		{842991, 604, 0x705a0667737851e7},
		{801814, 696, 0x92be3ed53854a0e0},
		{747266, 565, 0x5090860ad6daf27d},
		{787040, 685, 0xc2b28519caed9797},
		{657413, 550, 0x4190e803b7cb2ad4},
		{657413, 550, 0x4190e803b7cb2ad4},
	},
}

// paymentHash hashes a payment vector, its length included.
func paymentHash(pay []int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(pay)))
	h.Write(b[:])
	for _, v := range pay {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// mergeTrace drives a fresh cluster of the given size through two cycles of
// the scenario matrix, solving after every non-empty batch, and records
// every merged outcome.
func mergeTrace(t *testing.T, p *replication.Problem, shards int) []mergeStep {
	t.Helper()
	ctx := context.Background()
	co, _ := newTestCluster(t, p, online.Config{Seed: 11}, shards)
	var steps []mergeStep
	solve := func(step string) {
		t.Helper()
		if err := co.SolveNow(ctx); err != nil {
			t.Fatalf("%s: solve: %v", step, err)
		}
		sch := co.Current().Schema
		steps = append(steps, mergeStep{otc: sch.TotalCost(), replicas: sch.Placed(), payments: paymentHash(co.LastSolvePayments())})
	}
	solve("initial")
	for cycle := int64(1); cycle <= 2; cycle++ {
		for _, g := range sim.ScenarioMatrix(sim.ShapeOf(p), cycle) {
			for tick := 0; tick < g.Ticks(); tick++ {
				batch := g.Batch(tick)
				if len(batch) == 0 {
					continue
				}
				step := fmt.Sprintf("cycle %d %s tick %d", cycle, g.Name(), tick)
				if _, err := co.ApplyDeltas(batch); err != nil {
					t.Fatalf("%s: apply: %v", step, err)
				}
				solve(step)
			}
		}
	}
	if got := co.Status(ctx).ForwardErrors; got != 0 {
		t.Fatalf("%d forward errors", got)
	}
	return steps
}

// TestMultiShardMergeGoldens pins multi-shard merges: 2- and 3-shard
// clusters on the medium instance must reproduce, solve by solve, the
// merged OTC, replica count and payments recorded in mergeGoldens.
func TestMultiShardMergeGoldens(t *testing.T) {
	p := testutil.MustBuild(testutil.Medium(5))
	for _, shards := range []int{2, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testutil.LeakCheck(t)
			got := mergeTrace(t, p, shards)
			want := mergeGoldens[shards]
			same := len(got) == len(want)
			for i := 0; same && i < len(got); i++ {
				same = got[i] == want[i]
			}
			if same {
				return
			}
			var b strings.Builder
			for _, s := range got {
				fmt.Fprintf(&b, "\t{%d, %d, %#x},\n", s.otc, s.replicas, s.payments)
			}
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Errorf("solve %d: got %+v, want %+v", i, got[i], want[i])
					break
				}
			}
			t.Fatalf("%d solves, want %d; got:\n%s", len(got), len(want), b.String())
		})
	}
}

// TestShardEpochStreamUsesGlobalIDs: a shard's epoch stream speaks the
// coordinator's ids, so a routing client over the deployment's oracle,
// synced from shard 0's stream, answers every (member server, object) route
// exactly as the shard's own backend does.
func TestShardEpochStreamUsesGlobalIDs(t *testing.T) {
	testutil.LeakCheck(t)
	p := testutil.MustBuild(testutil.Medium(5))
	co, shs := newTestCluster(t, p, online.Config{Seed: 11}, 3)
	if err := co.SolveNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	b := shs[0].Backend()
	sub := b.Subscribe(0, 0)
	defer b.Unsubscribe(sub)
	c := routing.NewClient(p.Cost)
	for want := b.Current().Version; c.Version() < want; {
		select {
		case u := <-sub.C:
			if err := c.Apply(u); err != nil {
				t.Fatalf("apply update %d: %v", u.Version, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("stream stalled at version %d of %d", c.Version(), want)
		}
	}

	shs[0].mu.Lock()
	members := shs[0].region.Members
	shs[0].mu.Unlock()
	routes, differ := 0, 0
	for _, s := range members {
		for k := int32(0); int(k) < p.N; k++ {
			want, werr := b.Route(int(s), k)
			got, gerr := c.Route(int(s), k)
			routes++
			if (werr != nil) != (gerr != nil) || want != got {
				if differ == 0 {
					t.Errorf("route(%d,%d): shard %d (%v), stream client %d (%v)", s, k, want, werr, got, gerr)
				}
				differ++
			}
		}
	}
	if differ > 0 {
		t.Fatalf("%d of %d routes differ", differ, routes)
	}
}
