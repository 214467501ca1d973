package ndarray

import (
	"fmt"
)

// CopyRegion copies a hyper-rectangular region of counts elements from
// src (starting at srcOff) into dst (starting at dstOff). The two arrays
// may have different shapes; only the region extents must fit both. This
// is the kernel of the MxN exchange: a reader assembling its bounding box
// from several writers' blocks copies each intersection with one call.
// Trailing axes the region spans whole in both arrays fold into one run,
// so a block of whole rows is a single copy.
func CopyRegion(dst *Array, dstOff []int, src *Array, srcOff []int, counts []int) error {
	n := dst.NDim()
	if src.NDim() != n || len(dstOff) != n || len(srcOff) != n || len(counts) != n {
		return fmt.Errorf("ndarray: CopyRegion rank mismatch (dst %d, src %d, offsets %d/%d, counts %d)",
			n, src.NDim(), len(dstOff), len(srcOff), len(counts))
	}
	if err := (Box{Offsets: dstOff, Counts: counts}).validIn(dst.dims); err != nil {
		return fmt.Errorf("ndarray: CopyRegion destination: %w", err)
	}
	if err := (Box{Offsets: srcOff, Counts: counts}).validIn(src.dims); err != nil {
		return fmt.Errorf("ndarray: CopyRegion source: %w", err)
	}
	if Volume(counts) == 0 {
		return nil
	}
	var buf [3 * walkRank]int
	w := newWalk(buf[:], n)
	dStride, sStride := 1, 1
	for i := n - 1; i >= 0; i-- {
		w.dOff += dstOff[i] * dStride
		w.sOff += srcOff[i] * sStride
		w.add(counts[i], dStride, sStride)
		dStride *= dst.dims[i].Size
		sStride *= src.dims[i].Size
	}
	w.exec(nil, dst.data, src.data)
	return nil
}
