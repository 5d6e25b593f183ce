// Command bench is a nested module that reaches the parent's internal
// packages through its replace directive: its references count.
package main

import (
	"fmt"

	"violations/internal/graph"
)

func main() {
	fmt.Println(graph.BenchOnly())
}
