// Package service seeds ctxflow violations: a severed request context
// and a context parameter the body drops.
package service

import (
	"context"
	"net/http"
)

// handle restarts the context chain below the request.
func handle(w http.ResponseWriter, r *http.Request) {
	ctx := context.Background()
	w.Write([]byte(statusLabel(ctx)))
}

// statusLabel drops the context it accepts.
func statusLabel(ctx context.Context) string {
	return "ok"
}
