package mpi

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestBarrierSynchronizes(t *testing.T) {
	// No rank may leave the barrier before all have entered: count entries
	// before the barrier and verify the count is full after it.
	const n = 16
	var entered int32
	err := Run(n, func(c *Comm) error {
		atomic.AddInt32(&entered, 1)
		if err := c.Barrier(); err != nil {
			return err
		}
		if got := atomic.LoadInt32(&entered); got != n {
			return fmt.Errorf("rank %d left barrier with %d/%d entered", c.Rank(), got, n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierRepeated(t *testing.T) {
	err := Run(7, func(c *Comm) error {
		for i := 0; i < 25; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	err := Run(6, func(c *Comm) error {
		v := ""
		if c.Rank() == 2 {
			v = "hello"
		}
		got, err := Bcast(c, v, 2)
		if err != nil {
			return err
		}
		if got != "hello" {
			return fmt.Errorf("rank %d got %q", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastBadRoot(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if _, err := Bcast(c, 0, 5); err == nil {
			return errors.New("bcast accepted bad root")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGather(t *testing.T) {
	const n = 5
	err := Run(n, func(c *Comm) error {
		all, err := Gather(c, c.Rank()*10, 3)
		if err != nil {
			return err
		}
		if c.Rank() != 3 {
			if all != nil {
				return fmt.Errorf("non-root rank %d got %v", c.Rank(), all)
			}
			return nil
		}
		for r, v := range all {
			if v != r*10 {
				return fmt.Errorf("gathered %v", all)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	const n = 6
	err := Run(n, func(c *Comm) error {
		all, err := Allgather(c, fmt.Sprintf("r%d", c.Rank()))
		if err != nil {
			return err
		}
		if len(all) != n {
			return fmt.Errorf("len = %d", len(all))
		}
		for r, v := range all {
			if v != fmt.Sprintf("r%d", r) {
				return fmt.Errorf("all = %v", all)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceSum(t *testing.T) {
	const n = 9
	err := Run(n, func(c *Comm) error {
		got, err := Reduce(c, c.Rank()+1, Sum[int], 0)
		if err != nil {
			return err
		}
		if c.Rank() == 0 && got != n*(n+1)/2 {
			return fmt.Errorf("sum = %d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceMinMax(t *testing.T) {
	const n = 8
	err := Run(n, func(c *Comm) error {
		v := float64((c.Rank()*7)%n) + 0.5
		mn, err := Allreduce(c, v, Min[float64])
		if err != nil {
			return err
		}
		mx, err := Allreduce(c, v, Max[float64])
		if err != nil {
			return err
		}
		if mn != 0.5 || mx != float64(n-1)+0.5 {
			return fmt.Errorf("min=%v max=%v", mn, mx)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceFloat64sElementwise(t *testing.T) {
	const n = 4
	err := Run(n, func(c *Comm) error {
		local := []float64{float64(c.Rank()), 1, float64(c.Rank() * c.Rank())}
		got, err := AllreduceFloat64s(c, local, Sum[float64])
		if err != nil {
			return err
		}
		want := []float64{0 + 1 + 2 + 3, n, 0 + 1 + 4 + 9}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("got %v, want %v", got, want)
			}
		}
		// Input must be untouched.
		if local[0] != float64(c.Rank()) {
			return errors.New("allreduce mutated its input")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBackToBackCollectivesDoNotCrossTalk(t *testing.T) {
	// Rapid-fire different collectives; any tag collision would mix
	// payloads across calls.
	err := Run(6, func(c *Comm) error {
		for iter := 0; iter < 20; iter++ {
			b, err := Bcast(c, iter*1000, 0)
			if err != nil {
				return err
			}
			if b != iter*1000 {
				return fmt.Errorf("bcast iter %d got %d", iter, b)
			}
			s, err := Allreduce(c, 1, Sum[int])
			if err != nil {
				return err
			}
			if s != c.Size() {
				return fmt.Errorf("allreduce iter %d got %d", iter, s)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitByParity(t *testing.T) {
	const n = 7
	err := Run(n, func(c *Comm) error {
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		wantSize := (n + 1) / 2
		if c.Rank()%2 == 1 {
			wantSize = n / 2
		}
		if sub.Size() != wantSize {
			return fmt.Errorf("rank %d sub size %d, want %d", c.Rank(), sub.Size(), wantSize)
		}
		// New ranks are ordered by key (old rank).
		if sub.Rank() != c.Rank()/2 {
			return fmt.Errorf("old rank %d new rank %d", c.Rank(), sub.Rank())
		}
		// The subcommunicator must work for collectives, isolated from the
		// other color.
		sum, err := Allreduce(sub, c.Rank(), Sum[int])
		if err != nil {
			return err
		}
		want := 0
		for r := c.Rank() % 2; r < n; r += 2 {
			want += r
		}
		if sum != want {
			return fmt.Errorf("sub allreduce = %d, want %d", sum, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitKeyControlsOrder(t *testing.T) {
	const n = 4
	err := Run(n, func(c *Comm) error {
		// Reverse the rank order via keys.
		sub, err := c.Split(0, -c.Rank())
		if err != nil {
			return err
		}
		if sub.Rank() != n-1-c.Rank() {
			return fmt.Errorf("old %d new %d", c.Rank(), sub.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitTwiceIsIndependent(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		a, err := c.Split(0, c.Rank())
		if err != nil {
			return err
		}
		b, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		if _, err := Allreduce(a, 1, Sum[int]); err != nil {
			return err
		}
		s, err := Allreduce(b, 1, Sum[int])
		if err != nil {
			return err
		}
		if s != 2 {
			return fmt.Errorf("second split size = %d", s)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: Allreduce(Sum) equals the serial sum for random world sizes
// and values, on every rank.
func TestQuickAllreduceSum(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		vals := make([]float64, n)
		want := 0.0
		for i := range vals {
			vals[i] = float64(r.Intn(1000))
			want += vals[i]
		}
		ok := int32(0)
		err := Run(n, func(c *Comm) error {
			got, err := Allreduce(c, vals[c.Rank()], Sum[float64])
			if err != nil {
				return err
			}
			if got == want {
				atomic.AddInt32(&ok, 1)
			}
			return nil
		})
		return err == nil && ok == int32(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Split partitions ranks — each rank lands in exactly one
// subcommunicator, subgroup sizes sum to the world size, and every
// subgroup's rank space is exactly [0, subsize).
func TestQuickSplitPartitions(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		colors := make([]int, n)
		for i := range colors {
			colors[i] = r.Intn(3)
		}
		type res struct{ color, newRank, newSize int }
		results := make([]res, n)
		err := Run(n, func(c *Comm) error {
			sub, err := c.Split(colors[c.Rank()], 0)
			if err != nil {
				return err
			}
			results[c.Rank()] = res{colors[c.Rank()], sub.Rank(), sub.Size()}
			return nil
		})
		if err != nil {
			return false
		}
		byColor := map[int][]res{}
		for _, e := range results {
			byColor[e.color] = append(byColor[e.color], e)
		}
		total := 0
		for _, group := range byColor {
			total += len(group)
			seen := map[int]bool{}
			for _, e := range group {
				if e.newSize != len(group) || e.newRank < 0 || e.newRank >= len(group) || seen[e.newRank] {
					return false
				}
				seen[e.newRank] = true
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
