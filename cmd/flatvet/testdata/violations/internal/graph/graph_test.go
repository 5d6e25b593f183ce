package graph

import (
	"testing"

	"violations/internal/graphtest"
)

// A test reference does not count.
func TestUnused(t *testing.T) {
	if Unused()+Walk(2)+Bare()+(Ring{}).Len()+unexported() != graphtest.Helper() {
		t.Skip()
	}
}
