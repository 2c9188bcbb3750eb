package hydra

import (
	"context"
	"math"
	"testing"
)

// TestShardRangeTilesCollection pins the split convention: for any count,
// the shard ranges tile [0, n) in order with no gaps or overlap.
func TestShardRangeTilesCollection(t *testing.T) {
	for _, n := range []int{1, 7, 100, 999} {
		for count := 1; count <= 8; count++ {
			next := 0
			for i := 0; i < count; i++ {
				lo, hi := shardRange(n, i, count)
				if lo != next || hi < lo || hi > n {
					t.Fatalf("n=%d count=%d shard %d: range [%d,%d) after %d", n, count, i, lo, hi, next)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d count=%d: shards cover only [0,%d)", n, count, next)
			}
		}
	}
}

// TestWithShardOption pins the option path: an engine opened with WithShard
// serves exactly its slice and reports its placement.
func TestWithShardOption(t *testing.T) {
	d, err := Generate("synthetic", 100, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Open("", WithData(d), WithShard(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := shardRange(100, 1, 3)
	if e.Len() != hi-lo {
		t.Fatalf("shard engine serves %d series, want %d", e.Len(), hi-lo)
	}
	idx, count, offset, sharded := e.ShardInfo()
	if !sharded || idx != 1 || count != 3 || offset != lo {
		t.Fatalf("ShardInfo = (%d,%d,%d,%v), want (1,3,%d,true)", idx, count, offset, sharded, lo)
	}
	if _, _, _, sharded := mustOpen(t, d).ShardInfo(); sharded {
		t.Fatal("whole-collection engine reports sharded")
	}
	if _, err := Open("", WithData(d), WithShard(3, 3)); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}

func mustOpen(t *testing.T, d *Dataset) *Engine {
	t.Helper()
	e, err := Open("", WithData(d))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestShardedGatherBitIdentical is the conformance core of scatter-gather:
// per-shard engines queried independently, IDs remapped by the shard
// offset, answers folded through Gather — the merged top-k must equal the
// single whole-collection engine's answer bit for bit, for a scan and for
// an index method.
func TestShardedGatherBitIdentical(t *testing.T) {
	d, err := Generate("synthetic", 240, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	queries := ControlledWorkload(d, 6, 0.3, 11)

	build := func(method string, data *Dataset) *Engine {
		t.Helper()
		if method == "UCR-Suite" {
			e, err := Open("", WithData(data))
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		e, err := BuildIndex(context.Background(), method, WithData(data), WithLeafSize(16))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	for _, method := range []string{"UCR-Suite", "DSTree", "VA+file"} {
		whole := build(method, d)
		const shards = 3
		type shardEngine struct {
			e      *Engine
			offset int
		}
		var parts []shardEngine
		for i := 0; i < shards; i++ {
			sd, offset, err := d.Shard(i, shards)
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, shardEngine{e: build(method, sd), offset: offset})
		}
		for qi := 0; qi < queries.Len(); qi++ {
			q := queries.Query(qi)
			const k = 5
			want, err := whole.Query(context.Background(), q, k)
			if err != nil {
				t.Fatal(err)
			}
			g := NewGather(k)
			for si, p := range parts {
				local, err := p.e.Query(context.Background(), q, k)
				if err != nil {
					t.Fatal(err)
				}
				global := make([]Match, len(local))
				for i, m := range local {
					global[i] = Match{ID: m.ID + p.offset, Dist: m.Dist}
				}
				g.Fold(string(rune('a'+si)), global)
			}
			got := g.Results()
			if len(got) != len(want) {
				t.Fatalf("%s q%d: merged %d matches, want %d", method, qi, len(got), len(want))
			}
			for i := range got {
				if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
					t.Fatalf("%s q%d rank %d: merged %+v, single-engine %+v", method, qi, i, got[i], want[i])
				}
			}
		}
	}
}
