package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/online"
	"repro/internal/testutil"
)

// replyBytes decodes fuzz input into solve-reply contents. An id is one
// signed byte, so negative, valid and foreign ids are all a byte away; the
// byte 0x80 escapes to a full big-endian int32. Reads past the end return
// zeros.
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
// to 63 border ads and up to 255 payments.
func (b *replyBytes) reply(assign uint64) *SolveReply {
	rep := &SolveReply{Assign: assign}
	for n := b.next() % 64; n > 0; n-- {
		rep.Border = append(rep.Border, BorderAd{Object: b.index(), Server: b.index(), Gain: b.int64()})
	}
	for n := b.next(); n > 0; n-- {
		rep.Payments = append(rep.Payments, int64(int8(b.next())))
	}
	return rep
}

// FuzzSolveReply drives the coordinator's handling of solve replies with no
// network: a 2-region coordinator, its servers partitioned exactly as an
// assignment partitions them, merges replies whose contents the fuzzer
// picks, all in global ids — border ads with negative, foreign or past-N
// ids, ads on an object's primary, repeated ads and extreme gains, payment
// vectors longer than M. replied's low two bits say which regions answered.
// Whatever the shards answer, the merge must not panic, the installed epoch
// must pass the schema invariants, every surplus replica must sit on a
// server owned by a region that replied, and merging the same replies again
// must publish nothing when the memo covers them. Run with
// `go test -fuzz=FuzzSolveReply ./internal/cluster` to explore; the seed
// corpus runs on every plain `go test`.
func FuzzSolveReply(f *testing.F) {
	p := testutil.MustBuild(testutil.Small(41))
	// Seeds in reply's format. Small(41)'s 2-way partition gives region 0
	// servers 0, 1, 5, 6, 7, 8, 13 and 15 and region 1 the rest; object 2's
	// primary is server 15.
	i64 := func(v int64) []byte { return binary.BigEndian.AppendUint64(nil, uint64(v)) }
	ad := func(object, server byte, gain int64) []byte { return append([]byte{object, server}, i64(gain)...) }
	// Both regions place a replica of object 0, one of them priced negative.
	f.Add(uint8(3), slices.Concat([]byte{3}, ad(0, 1, 4), ad(0, 5, 2), ad(3, 0, 7), []byte{2, 5, 3},
		[]byte{2}, ad(0, 2, -3), ad(5, 3, 6), []byte{1, 4}))
	// An ad on the primary and a repeated ad.
	f.Add(uint8(3), slices.Concat([]byte{4}, ad(2, 15, 1), ad(0, 1, 4), ad(0, 1, 4), ad(0, 1, 9), []byte{0},
		[]byte{1}, ad(2, 3, 5), []byte{0}))
	// A foreign server, negative ids, objects at and past N, extreme gains,
	// and more payments than servers.
	f.Add(uint8(2), slices.Concat([]byte{6}, ad(1, 0, 3), ad(0xff, 2, 1), ad(4, 0xfb, 1), ad(60, 3, 1),
		[]byte{0x80, 0x7f, 0xff, 0xff, 0xff, 4}, i64(math.MaxInt64), ad(9, 4, math.MinInt64), []byte{200, 1, 2, 3}))
	f.Add(uint8(1), []byte{})

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
		for j, part := range hierarchy.PartitionBalanced(pr, 2) {
			co.assigned[j] = true
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

// FuzzAssign drives a shard's assign handler with no network: each input
// starts from a shard running generation 1 and ships one assignment whose
// version, members and carry the fuzzer picks, and whose region it then
// edits — members swapped out of order, overwritten with negative, huge or
// foreign values or appended, state rows truncated, carry rows with any
// ids. Every input ends in one of two outcomes, never a panic: a typed
// error (online.ErrInvalidState or ErrStaleAssign) with generation 1 still
// in place, or an accepted assignment whose route answers always come from
// a member or the object's primary. Run with
// `go test -fuzz=FuzzAssign ./internal/cluster` to explore; the seed corpus
// runs on every plain `go test`.
func FuzzAssign(f *testing.F) {
	p := testutil.MustBuild(testutil.Small(47))
	mirror, err := online.New(p.Cost, p.Work, p.Capacity, online.Config{})
	if err != nil {
		f.Fatal(err)
	}
	full := mirror.ExportState()
	mirror.Close()
	all := make([]int32, p.M)
	for i := range all {
		all[i] = int32(i)
	}
	f.Add(uint64(2), uint16(0x00ff), []byte{})
	f.Add(uint64(1), uint16(0xffff), []byte{})
	f.Add(uint64(3), uint16(0x0f0f), []byte{0, 0, 1, 1, 1, 2, 2, 0x80, 0x7f, 0xff, 0xff, 0xff})
	f.Add(uint64(2), uint16(0x00f0), []byte{3, 0, 0x80, 0x80, 0, 0, 0, 4, 5, 6, 1, 2, 3, 7, 7, 0xfe, 1, 9})

	f.Fuzz(func(t *testing.T, version uint64, memberBits uint16, ops []byte) {
		sh := NewShard(0, p.Cost, ShardConfig{Controller: online.Config{Seed: 1}})
		defer sh.Close()
		ctx := context.Background()
		if _, err := sh.handleAssign(ctx, &AssignRequest{Version: 1, Region: full.Mask(all)}); err != nil {
			t.Fatal(err)
		}
		sh.mu.Lock()
		prevCtrl, prevRegion := sh.ctrl, sh.region
		sh.mu.Unlock()

		var members []int32
		for i := 0; i < p.M; i++ {
			if memberBits>>(i%16)&1 == 1 {
				members = append(members, int32(i))
			}
		}
		reg := full.Mask(members)
		var carry [][]int32
		in := replyBytes(ops)
		at := func(ids []int32) int { return int(in.next()) % max(len(ids), 1) }
		for len(in) > 0 {
			switch in.next() % 6 {
			case 0:
				if len(reg.Members) > 0 {
					i, j := at(reg.Members), at(reg.Members)
					reg.Members[i], reg.Members[j] = reg.Members[j], reg.Members[i]
				}
			case 1:
				reg.Members = append(reg.Members, in.index())
			case 2:
				if len(reg.Members) > 0 {
					reg.Members[at(reg.Members)] = in.index()
				}
			case 3:
				if n := len(reg.State.Capacity); n > 0 {
					reg.State.Capacity = reg.State.Capacity[:n-1]
				}
			case 4:
				if n := len(reg.State.Sizes); n > 0 {
					reg.State.Sizes = reg.State.Sizes[:n-1]
				}
			case 5:
				row := make([]int32, in.next()%4)
				for i := range row {
					row[i] = in.index()
				}
				carry = append(carry, row)
			}
		}

		_, err := sh.handleAssign(ctx, &AssignRequest{Version: version, Region: reg, Carry: carry})
		sh.mu.Lock()
		ctrl, region, ver := sh.ctrl, sh.region, sh.assignVer
		sh.mu.Unlock()
		if err != nil {
			if !errors.Is(err, online.ErrInvalidState) && !errors.Is(err, ErrStaleAssign) {
				t.Fatalf("assign refused with an untyped error: %v", err)
			}
			if ctrl != prevCtrl || region != prevRegion || ver != 1 {
				t.Fatalf("refused assignment (%v) replaced generation 1 with %d", err, ver)
			}
			return
		}
		if ver != version || region != reg {
			t.Fatalf("accepted assignment runs generation %d, want %d", ver, version)
		}
		primary := ctrl.Current().Problem.Work.Primary
		for server := -1; server <= p.M; server++ {
			for k := int32(-1); k <= int32(p.N); k++ {
				from, err := sh.Backend().Route(server, k)
				if err != nil {
					continue
				}
				if from != primary[k] && !reg.IsMember(int(from)) {
					t.Fatalf("route(%d,%d) = %d, neither a member nor the primary", server, k, from)
				}
			}
		}
	})
}
