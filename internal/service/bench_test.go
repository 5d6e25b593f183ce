package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"flattree/internal/control"
	"flattree/internal/core"
	"flattree/internal/experiments"
	"flattree/internal/telemetry"
)

// benchServer builds the daemon perfbench's flatd_live serves, the way
// cmd/flatd builds it by default: mini-1 with every pod Clos, k = 8,
// 50 ms detection, parallel rule pricing, and the global registry
// keeping 512 request spans.
func benchServer(b *testing.B) *Server {
	b.Helper()
	nw, err := experiments.Config{}.Network("mini-1")
	if err != nil {
		b.Fatal(err)
	}
	nw.SetMode(core.ModeClos)
	reg := telemetry.Enable()
	b.Cleanup(telemetry.Disable)
	reg.SetRootSpanLimit(512)
	delay := control.TestbedDelayModel()
	delay.Parallel = true
	srv, err := New(Config{Network: nw, K: 8, Detection: 0.05, Delay: delay, Registry: reg})
	if err != nil {
		b.Fatal(err)
	}
	return srv
}

// serve sends one request through h and returns its status.
func serve(h http.Handler, method, target, body string) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rec.Code
}

// failRepair fails and then repairs the (a, b) adjacency through h.
func failRepair(b *testing.B, h http.Handler, a, z int) {
	for _, action := range []string{"fail", "repair"} {
		body := fmt.Sprintf(`{"action":%q,"a":%d,"b":%d}`, action, a, z)
		if code := serve(h, http.MethodPost, "/events/link", body); code != http.StatusOK {
			b.Errorf("%s status %d", action, code)
		}
	}
}

// BenchmarkRoutesDuringLinkEvents times /routes lookups on every proc
// while one goroutine fails and repairs one adjacency back to back, and
// reports the link events applied per second of the timed window.
func BenchmarkRoutesDuringLinkEvents(b *testing.B) {
	srv := benchServer(b)
	h := srv.Handler()
	a, z := switchLink(b, srv.topo)
	servers := srv.topo.Servers()
	var events atomic.Int64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			failRepair(b, h, a, z)
			events.Add(2)
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	from := events.Load()
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1))
			src, dst := servers[i%len(servers)], servers[(7*i+1)%len(servers)]
			if code := serve(h, http.MethodGet, fmt.Sprintf("/routes?src=%d&dst=%d", src, dst), ""); code != http.StatusOK {
				b.Errorf("routes %d->%d status %d", src, dst, code)
			}
		}
	})
	b.StopTimer()
	applied := events.Load() - from
	close(stop)
	<-done
	b.ReportMetric(float64(applied)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkLinkEvent times one fail and one repair of an adjacency.
func BenchmarkLinkEvent(b *testing.B) {
	srv := benchServer(b)
	h := srv.Handler()
	a, z := switchLink(b, srv.topo)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		failRepair(b, h, a, z)
	}
}
