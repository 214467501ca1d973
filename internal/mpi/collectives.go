package mpi

import (
	"fmt"
	"sort"
)

// nextCollTag returns the reserved negative tag for this rank's next
// collective. Because every rank calls collectives on a communicator in
// the same program order (an MPI requirement this runtime shares),
// sequence numbers agree across ranks and consecutive collectives cannot
// exchange each other's messages.
func (c *Comm) nextCollTag() int {
	c.collSeq++
	return -c.collSeq
}

// Barrier blocks until every rank of the communicator has entered it.
// Implemented as a gather to rank 0 followed by a release broadcast.
func (c *Comm) Barrier() error {
	tag := c.nextCollTag()
	if c.rank == 0 {
		for i := 1; i < c.Size(); i++ {
			if _, _, err := c.recvColl(AnySource, tag); err != nil {
				return err
			}
		}
		for i := 1; i < c.Size(); i++ {
			if err := c.send(i, tag, nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := c.send(0, tag, nil); err != nil {
		return err
	}
	_, _, err := c.recvColl(0, tag)
	return err
}

func (c *Comm) recvColl(src, tag int) (any, int, error) {
	msg, err := c.g.boxes[c.rank].take(src, tag, c.g.w.ctx.Done())
	if err != nil {
		return nil, 0, err
	}
	return msg.payload, msg.src, nil
}

// Bcast distributes root's value to every rank; every rank (including
// root) receives the value root passed. Non-root ranks may pass the zero
// value.
func Bcast[T any](c *Comm, v T, root int) (T, error) {
	var zero T
	if root < 0 || root >= c.Size() {
		return zero, fmt.Errorf("mpi: bcast root %d outside communicator of size %d", root, c.Size())
	}
	tag := c.nextCollTag()
	if c.rank == root {
		for i := 0; i < c.Size(); i++ {
			if i == root {
				continue
			}
			if err := c.send(i, tag, v); err != nil {
				return zero, err
			}
		}
		return v, nil
	}
	payload, _, err := c.recvColl(root, tag)
	if err != nil {
		return zero, err
	}
	got, ok := payload.(T)
	if !ok {
		return zero, fmt.Errorf("mpi: bcast type mismatch: %T, want %T", payload, zero)
	}
	return got, nil
}

// Gather collects one value from every rank at root. Root receives a
// slice indexed by rank; other ranks receive nil.
func Gather[T any](c *Comm, v T, root int) ([]T, error) {
	if root < 0 || root >= c.Size() {
		return nil, fmt.Errorf("mpi: gather root %d outside communicator of size %d", root, c.Size())
	}
	tag := c.nextCollTag()
	if c.rank != root {
		return nil, c.send(root, tag, v)
	}
	out := make([]T, c.Size())
	out[root] = v
	for i := 0; i < c.Size()-1; i++ {
		payload, from, err := c.recvColl(AnySource, tag)
		if err != nil {
			return nil, err
		}
		got, ok := payload.(T)
		if !ok {
			return nil, fmt.Errorf("mpi: gather type mismatch from rank %d: %T", from, payload)
		}
		out[from] = got
	}
	return out, nil
}

// Allgather collects one value from every rank at every rank.
func Allgather[T any](c *Comm, v T) ([]T, error) {
	all, err := Gather(c, v, 0)
	if err != nil {
		return nil, err
	}
	return Bcast(c, all, 0)
}

// Reduce combines one value per rank with op at root. op must be
// associative and commutative; values are folded in rank order so even
// non-commutative ops behave deterministically.
func Reduce[T any](c *Comm, v T, op func(a, b T) T, root int) (T, error) {
	var zero T
	all, err := Gather(c, v, root)
	if err != nil {
		return zero, err
	}
	if c.rank != root {
		return zero, nil
	}
	acc := all[0]
	for _, x := range all[1:] {
		acc = op(acc, x)
	}
	return acc, nil
}

// Allreduce combines one value per rank with op and returns the result on
// every rank.
func Allreduce[T any](c *Comm, v T, op func(a, b T) T) (T, error) {
	var zero T
	red, err := Reduce(c, v, op, 0)
	if err != nil {
		return zero, err
	}
	return Bcast(c, red, 0)
}

// AllreduceFloat64s element-wise reduces equal-length slices across ranks
// (e.g. merging per-rank histogram bin counts); every rank receives the
// combined slice. The input slice is not modified.
func AllreduceFloat64s(c *Comm, v []float64, op func(a, b float64) float64) ([]float64, error) {
	return Allreduce(c, append([]float64(nil), v...), func(a, b []float64) []float64 {
		if len(a) != len(b) {
			panic(fmt.Sprintf("mpi: allreduce slice length mismatch: %d vs %d", len(a), len(b)))
		}
		out := make([]float64, len(a))
		for i := range a {
			out[i] = op(a[i], b[i])
		}
		return out
	})
}

// Common reduction operators.

// Sum adds two values.
func Sum[T int | int64 | float64](a, b T) T { return a + b }

// Min returns the smaller value.
func Min[T int | int64 | float64](a, b T) T {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger value.
func Max[T int | int64 | float64](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// Split partitions the communicator by color: ranks passing the same
// color form a new communicator, ordered by (key, old rank). Every rank
// must call Split; there is no MPI_UNDEFINED — a rank that wants to be
// alone passes a unique color.
func (c *Comm) Split(color, key int) (*Comm, error) {
	type ck struct{ Color, Key, Rank int }
	all, err := Allgather(c, ck{color, key, c.rank})
	if err != nil {
		return nil, err
	}
	members := make([]ck, 0, len(all))
	for _, e := range all {
		if e.Color == color {
			members = append(members, e)
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].Key != members[j].Key {
			return members[i].Key < members[j].Key
		}
		return members[i].Rank < members[j].Rank
	})
	myNewRank := -1
	for i, m := range members {
		if m.Rank == c.rank {
			myNewRank = i
			break
		}
	}
	c.splitSeq++
	id := fmt.Sprintf("%s/split%d/c%d", c.g.id, c.splitSeq, color)
	w := c.g.w
	w.mu.Lock()
	g, ok := w.groups[id]
	if !ok {
		g = &group{id: id, w: w, boxes: make([]*mailbox, len(members))}
		for i := range g.boxes {
			g.boxes[i] = newMailbox()
		}
		w.groups[id] = g
		w.allBoxes = append(w.allBoxes, g.boxes...)
	}
	w.mu.Unlock()
	return &Comm{g: g, rank: myNewRank}, nil
}
