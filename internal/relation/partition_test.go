package relation

import (
	"math/rand"
	"testing"
)

func TestShardRangeAndStability(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		for v := int64(-50); v < 50; v++ {
			s := Shard(v, n)
			if s < 0 || s >= n {
				t.Fatalf("Shard(%d, %d) = %d out of range", v, n, s)
			}
			if s != Shard(v, n) {
				t.Fatalf("Shard(%d, %d) unstable", v, n)
			}
		}
	}
	if Shard(123, 0) != 0 || Shard(123, -4) != 0 {
		t.Fatal("non-positive shard counts must map to 0")
	}
}

func TestShardSpreadsSequentialKeys(t *testing.T) {
	// Dictionary-encoded values are small sequential integers; the mix step
	// must spread them rather than stride them onto shard = v % n.
	const n = 4
	var counts [n]int
	for v := int64(0); v < 4000; v++ {
		counts[Shard(v, n)]++
	}
	for i, c := range counts {
		if c < 600 || c > 1400 {
			t.Fatalf("shard %d got %d of 4000 sequential keys: hash does not spread", i, c)
		}
	}
}

func TestPartitionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := make([]Tuple, 500)
	for i := range rows {
		rows[i] = Tuple{int64(rng.Intn(40)), int64(rng.Intn(1000))}
	}
	r := MustNew("R", []string{"a", "b"}, rows)
	const n = 4
	parts := r.Partition(0, n)
	total := 0
	for i, p := range parts {
		if p.Name != "R" || len(p.Attrs) != 2 {
			t.Fatalf("partition %d lost schema: %+v", i, p)
		}
		for _, row := range p.Rows {
			if Shard(row[0], n) != i {
				t.Fatalf("row %v landed in partition %d, owner is %d", row, i, Shard(row[0], n))
			}
		}
		total += len(p.Rows)
	}
	if total != len(rows) {
		t.Fatalf("partitions hold %d rows, want %d", total, len(rows))
	}
	// Partitioning agrees with update routing: every row of partition i
	// routes to shard i through the same (column, n) pair.
	one := r.Partition(0, 1)
	if len(one) != 1 || len(one[0].Rows) != len(rows) {
		t.Fatal("n=1 must yield one full partition")
	}
	bad := r.Partition(9, n) // out-of-range column: all rows to partition 0
	if len(bad[0].Rows) != len(rows) {
		t.Fatal("out-of-range column must put every row in partition 0")
	}
}

func TestRowSetContains(t *testing.T) {
	r := MustNew("R", []string{"a", "b"}, []Tuple{{1, 2}, {1, 2}, {3, 4}})
	rs := NewRowSet(r)
	if !rs.Contains(Tuple{1, 2}) || !rs.Contains(Tuple{3, 4}) {
		t.Fatal("present rows reported absent")
	}
	if rs.Contains(Tuple{9, 9}) {
		t.Fatal("absent row reported present")
	}
	if err := rs.Remove(r, Tuple{3, 4}); err != nil {
		t.Fatal(err)
	}
	if rs.Contains(Tuple{3, 4}) {
		t.Fatal("removed row reported present")
	}
	if err := rs.Remove(r, Tuple{1, 2}); err != nil {
		t.Fatal(err)
	}
	if !rs.Contains(Tuple{1, 2}) {
		t.Fatal("multiset lost the second occurrence")
	}
}

func TestRowSetEqual(t *testing.T) {
	a := NewRowSet(MustNew("R", []string{"a"}, []Tuple{{1}, {1}, {2}}))
	b := NewRowSet(MustNew("R", []string{"a"}, []Tuple{{2}, {1}, {1}}))
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("row order must not matter")
	}
	// Same length and same distinct rows, different multiplicities.
	c := NewRowSet(MustNew("R", []string{"a"}, []Tuple{{1}, {2}, {2}}))
	if a.Equal(c) || c.Equal(a) {
		t.Fatal("multiplicities must matter")
	}
	d := NewRowSet(MustNew("R", []string{"a"}, []Tuple{{1}, {1}, {3}}))
	if a.Equal(d) {
		t.Fatal("distinct rows must matter")
	}
}
