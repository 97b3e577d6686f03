package escapegate

type node struct{ v int }

var published *node

var captured *int

//drlint:hotpath
func hotEscape(vs []int) int {
	n := &node{v: len(vs)} // want "escapes to heap"
	published = n
	s := 0
	for _, v := range vs {
		s += v + n.v
	}
	return s
}

//drlint:hotpath
func hotMoved(vs []int) {
	total := 0 // want "local total is moved to the heap"
	for _, v := range vs {
		total += v
	}
	capture(&total)
}

func capture(p *int) { captured = p }

//drlint:hotpath
func hotClean(vs []int) int {
	acc := node{v: 1}
	s := 0
	for _, v := range vs {
		s += v * acc.v
	}
	return s
}

// Result materialization is exempt: the slice is the function's value.
//
//drlint:hotpath
func hotResult(vs []int) []int {
	out := make([]int, 0, len(vs))
	for _, v := range vs {
		out = append(out, v)
	}
	return out
}

var (
	buffers [][]float64
	counts  []*int
	boxed   []any
)

// The compiler keys an allocating make/new at the call's left parenthesis
// and a value boxed into an interface at the value's own expression; a
// plain composite literal at its left brace.
//
//drlint:hotpath
func hotBuiltins(lo, hi int) int {
	tmp := make([]float64, hi-lo) // want "make\(\[\]float64, hi - lo\) escapes to heap"
	buffers = append(buffers, tmp)
	p := new(int) // want "new\(int\) escapes to heap"
	counts = append(counts, p)
	record(lo)                      // want "lo escapes to heap"
	boxed = append(boxed, node{hi}) // want "node\{...\} escapes to heap"

	var fixed [8]float64
	local := make([]float64, 8) // constant size, never leaves the frame: clean
	copy(local, fixed[:])
	return len(local)
}

//go:noinline
func record(args ...any) { boxed = append(boxed, args...) }
