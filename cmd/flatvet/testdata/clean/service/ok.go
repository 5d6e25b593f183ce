// Package service is a ctxflow-scope package with no violations: the
// request context threads through the helper.
package service

import (
	"context"
	"net/http"
)

func handle(w http.ResponseWriter, r *http.Request) {
	w.Write([]byte(label(r.Context(), 1)))
}

func label(ctx context.Context, n int) string {
	select {
	case <-ctx.Done():
		return "cancelled"
	default:
	}
	if n > 0 {
		return "busy"
	}
	return "idle"
}
