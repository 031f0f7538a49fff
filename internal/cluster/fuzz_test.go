package cluster

import (
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/testutil"
)

// replyBytes decodes fuzz input into solve-reply contents. An index is one
// signed byte, so negative, valid and out-of-region indexes are all a byte
// away; the byte 0x80 escapes to a full big-endian int32. Reads past the end
// return zeros.
type replyBytes []byte

func (b *replyBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

func (b *replyBytes) index() int32 {
	c := b.next()
	if c != 0x80 {
		return int32(int8(c))
	}
	var v uint32
	for i := 0; i < 4; i++ {
		v = v<<8 | uint32(b.next())
	}
	return int32(v)
}

func (b *replyBytes) int64() int64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(b.next())
	}
	return int64(v)
}

// reply decodes one region's answer under assignment generation assign: up
// to 255 matrix rows of up to 7 local server indexes, the delegate bid, up
// to 15 border ads and up to 255 payments.
func (b *replyBytes) reply(assign uint64) *SolveReply {
	rep := &SolveReply{Assign: assign, Matrix: make([][]int32, b.next())}
	for l := range rep.Matrix {
		row := make([]int32, b.next()%8)
		for i := range row {
			row[i] = b.index()
		}
		rep.Matrix[l] = row
	}
	rep.SavedOTC = b.int64()
	for n := b.next() % 16; n > 0; n-- {
		rep.Border = append(rep.Border, BorderAd{Object: b.index(), Server: b.index(), Gain: b.int64()})
	}
	for n := b.next(); n > 0; n-- {
		rep.Payments = append(rep.Payments, int64(int8(b.next())))
	}
	return rep
}

// FuzzSolveReply drives the coordinator's handling of solve replies with no
// network: a 2-region coordinator, its mappings compacted from the mirror
// exactly as an assignment compacts them, merges replies whose contents the
// fuzzer picks — matrix rows with negative, out-of-region or duplicate local
// indexes and rows past the region's objects, border ads with bad ids and
// extreme gains, payment vectors longer than the region. replied's low two
// bits say which regions answered. Whatever the shards answer, the merge
// must not panic, the installed epoch must pass the schema invariants, every
// surplus replica must sit on a server owned by a region that replied, and
// merging the same replies again must publish nothing when the memo covers
// them. Run with `go test -fuzz=FuzzSolveReply ./internal/cluster` to
// explore; the seed corpus runs on every plain `go test`.
func FuzzSolveReply(f *testing.F) {
	p := testutil.MustBuild(testutil.Small(41))
	f.Add(uint8(3), []byte{3, 2, 0, 1, 1, 2, 3, 0, 2, 0, 0, 0, 0, 0, 0, 0, 9, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 5, 2, 3, 4,
		2, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 4})
	f.Add(uint8(1), []byte{})
	f.Add(uint8(2), []byte{0xff, 0x81, 0x7f, 0x80, 0x7f, 0xff, 0xff, 0xff, 0xff, 0x80, 0, 0, 0, 0})
	f.Add(uint8(3), []byte{1, 7, 5, 5, 5, 0xfb, 0x40, 0x80, 0x80, 0, 0, 0, 0, 0, 0, 0,
		15, 0, 5, 0x80, 0, 0, 0, 0, 0, 0, 0, 0xff, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 200, 1, 2, 3})

	f.Fuzz(func(t *testing.T, replied uint8, data []byte) {
		if replied&3 == 0 {
			return // a solve with no replies never reaches the merge
		}
		co, err := NewCoordinator(p, []string{"127.0.0.1:1", "127.0.0.1:1"}, CoordinatorConfig{Codec: CodecGob})
		if err != nil {
			t.Fatal(err)
		}
		defer co.Close()
		const ver = 1
		pr := co.Current().Problem
		full := co.mirror.ExportState()
		for j, part := range hierarchy.PartitionBalanced(pr, 2) {
			co.mappings[j] = full.Compact(part)
			for _, s := range part {
				co.regionOf[s] = int32(j)
			}
		}
		co.assignVer = ver

		in := replyBytes(data)
		var replies []regionReply
		for j := 0; j < 2; j++ {
			if replied>>j&1 == 1 {
				replies = append(replies, regionReply{shard: j, rep: in.reply(ver)})
			}
		}
		co.merge(ver, replies)

		e := co.Current()
		if err := e.Schema.ValidateInvariants(); err != nil {
			t.Fatalf("installed epoch %d: %v", e.Version, err)
		}
		for k, row := range e.Schema.Matrix() {
			for _, s := range row {
				if s != pr.Work.Primary[k] && replied>>co.regionOf[s]&1 == 0 {
					t.Fatalf("object %d: surplus replica on server %d of region %d, which did not reply", k, s, co.regionOf[s])
				}
			}
		}
		if got := len(co.LastSolvePayments()); got != pr.M {
			t.Fatalf("payments cover %d servers, want %d", got, pr.M)
		}

		co.merge(ver, replies)
		if len(replies) > 1 && co.Current().Version != e.Version {
			t.Fatalf("merging the same replies again published epoch %d after %d", co.Current().Version, e.Version)
		}
	})
}
