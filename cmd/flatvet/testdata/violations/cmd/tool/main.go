// Command tool is the module's binary: its references count.
package main

import (
	"container/heap"
	"fmt"

	"violations/internal/graph"
)

func main() {
	q := &graph.Queue{}
	heap.Push(q, graph.Used())
	fmt.Println(heap.Pop(q), graph.Ring{})
}
