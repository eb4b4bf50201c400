package sat

import "slices"

// varHeap is an indexed max-heap over variables ordered by VSIDS
// activity. It supports decrease/increase-key via the position index,
// which plain container/heap cannot do without O(n) scans.
type varHeap struct {
	act   *[]float64 // shared activity array, indexed by Var
	heap  []Var      // heap of variables
	index []int32    // var -> position in heap, -1 if absent
}

func newVarHeap(act *[]float64) *varHeap {
	return &varHeap{act: act}
}

// reserve makes room for n more variables in the heap and its index.
func (h *varHeap) reserve(n int) {
	h.heap = slices.Grow(h.heap, n)
	h.index = slices.Grow(h.index, n)
}

func (h *varHeap) growTo(n int) {
	for len(h.index) < n {
		h.index = append(h.index, -1)
	}
}

func (h *varHeap) inHeap(v Var) bool {
	return int(v) < len(h.index) && h.index[v] >= 0
}

func (h *varHeap) empty() bool { return len(h.heap) == 0 }

func (h *varHeap) lt(a, b Var) bool { return (*h.act)[a] > (*h.act)[b] }

func (h *varHeap) percolateUp(i int) {
	v := h.heap[i]
	for i > 0 {
		parent := (i - 1) >> 1
		if !h.lt(v, h.heap[parent]) {
			break
		}
		h.heap[i] = h.heap[parent]
		h.index[h.heap[i]] = int32(i)
		i = parent
	}
	h.heap[i] = v
	h.index[v] = int32(i)
}

func (h *varHeap) percolateDown(i int) {
	v := h.heap[i]
	for {
		left := 2*i + 1
		if left >= len(h.heap) {
			break
		}
		child := left
		if right := left + 1; right < len(h.heap) && h.lt(h.heap[right], h.heap[left]) {
			child = right
		}
		if !h.lt(h.heap[child], v) {
			break
		}
		h.heap[i] = h.heap[child]
		h.index[h.heap[i]] = int32(i)
		i = child
	}
	h.heap[i] = v
	h.index[v] = int32(i)
}

// insert adds v if absent.
func (h *varHeap) insert(v Var) {
	h.growTo(int(v) + 1)
	if h.inHeap(v) {
		return
	}
	h.index[v] = int32(len(h.heap))
	h.heap = append(h.heap, v)
	h.percolateUp(len(h.heap) - 1)
}

// decrease re-establishes heap order after v's activity increased
// (moves it toward the root of the max-heap).
func (h *varHeap) decrease(v Var) {
	if h.inHeap(v) {
		h.percolateUp(int(h.index[v]))
	}
}

// removeMin pops the highest-activity variable.
func (h *varHeap) removeMin() Var {
	v := h.heap[0]
	last := h.heap[len(h.heap)-1]
	h.heap = h.heap[:len(h.heap)-1]
	h.index[v] = -1
	if len(h.heap) > 0 {
		h.heap[0] = last
		h.index[last] = 0
		h.percolateDown(0)
	}
	return v
}

// rebuild re-heapifies after a bulk activity rescale.
func (h *varHeap) rebuild() {
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.percolateDown(i)
	}
}
