package sb

import "fmt"

// ChooseAxis returns the axis of an incoming global array a component
// splits across its ranks: the first axis the kernel has not reserved
// (e.g. Select cannot partition the axis it filters), which for an
// unreserved array is row-slab decomposition. The paper's components
// partition "the generally large dataset … among its constituent
// processes" (§III-B) without prescribing the axis. It errors if every
// axis is reserved.
func ChooseAxis(shape []int, reserved ...int) (int, error) {
	for i := range shape {
		if !containsAxis(reserved, i) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("sb: no partitionable axis in rank-%d array (reserved %v)", len(shape), reserved)
}

func containsAxis(axes []int, i int) bool {
	for _, a := range axes {
		if a == i {
			return true
		}
	}
	return false
}
