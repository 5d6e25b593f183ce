// Package graph seeds the testonly findings: exported functions and
// methods of an internal package that no production file references.
package graph

// Used is called by cmd/tool: not reported.
func Used() int { return 1 }

// BenchOnly is called only by the nested bench module, which replaces
// this module with its parent directory: not reported.
func BenchOnly() int { return 2 }

// Unused has no caller but its test: testonly fires.
func Unused() int { return 3 }

// Walk calls only itself, which is no reference: testonly fires.
func Walk(n int) int {
	if n == 0 {
		return 0
	}
	return Walk(n - 1)
}

// Planned is waived for a named production user: not reported.
//
//flatvet:testonly the daemon's boot path will decode with it
func Planned() int { return 4 }

// Bare's waiver gives no reason, so it waives nothing: the directive is
// malformed and testonly fires.
//
//flatvet:testonly
func Bare() int { return 5 }

// Ring is a production type; cmd/tool prints one.
type Ring struct{ n int }

// String makes Ring a fmt.Stringer, which fmt calls: not reported.
func (r Ring) String() string { return "ring" }

// Len is a method no production file calls: testonly fires.
func (r Ring) Len() int { return r.n }

// unexported is out of scope: not reported.
func unexported() int { return 6 }

// Queue is a heap.Interface, which container/heap calls: its methods are
// not reported, though Push and Pop spell the empty interface and name
// their parameters differently from heap.Interface.
type Queue []int

func (q Queue) Len() int           { return len(q) }
func (q Queue) Less(i, j int) bool { return q[i] < q[j] }
func (q Queue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }

func (q *Queue) Push(v interface{}) { *q = append(*q, v.(int)) }

func (q *Queue) Pop() interface{} {
	old := *q
	v := old[len(old)-1]
	*q = old[:len(old)-1]
	return v
}
