package service

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

// FuzzHandler sends arbitrary methods, targets and bodies through the
// daemon's full handler chain, on a registry bounded the way flatd
// bounds it. No request may end in a 5xx other than the timeout's 503,
// and only a 200 from /events/link may publish a new epoch: any other
// response leaves the epoch pointer-identical and the pod modes as
// they were.
func FuzzHandler(f *testing.F) {
	srv := newTestServer(f)
	srv.reg.SetRootSpanLimit(512)
	h := srv.Handler()
	modes := srv.nw.PodModes()
	servers := srv.topo.Servers()
	a, b := switchLink(f, srv.topo)
	for _, seed := range []struct{ method, target, body string }{
		{http.MethodGet, "/healthz", ""},
		{http.MethodGet, "/topology", ""},
		{http.MethodGet, fmt.Sprintf("/routes?src=%d&dst=%d", servers[0], servers[len(servers)-1]), ""},
		{http.MethodGet, "/routes?src=0&dst=x", ""},
		{http.MethodPost, "/quote/convert", `{"modes":["local","clos"]}`},
		{http.MethodPost, "/quote/convert", `{"modes":["global"]}`},
		{http.MethodPost, "/events/link", fmt.Sprintf(`{"action":"fail","a":%d,"b":%d}`, a, b)},
		{http.MethodPost, "/events/link", fmt.Sprintf(`{"action":"repair","a":%d,"b":%d}`, b, a)},
		{http.MethodPost, "/events/link", `{"action":"fail","a":0,"b":0}`},
		{http.MethodPost, "/events/link", `{"action":"fail","a":0,"b":0} x`},
		{http.MethodGet, "/metrics", ""},
		{http.MethodDelete, "/metrics/../healthz?x=%zz", "{"},
	} {
		f.Add(seed.method, seed.target, []byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, method, target string, body []byte) {
		req, err := http.NewRequest(method, "http://flatd"+target, bytes.NewReader(body))
		if err != nil {
			return // no client can send it
		}
		before := srv.cur.Load()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 && !(rec.Code == http.StatusServiceUnavailable && strings.Contains(rec.Body.String(), "request timed out")) {
			t.Fatalf("%s %q: status %d, body %s", method, target, rec.Code, rec.Body.Bytes())
		}
		after := srv.cur.Load()
		if rec.Code == http.StatusOK && req.URL.Path == "/events/link" {
			if after.events != before.events+1 {
				t.Fatalf("accepted link event moved the epoch from %d to %d", before.events, after.events)
			}
		} else if after != before {
			t.Fatalf("%s %q answered %d and published epoch %d", method, target, rec.Code, after.events)
		}
		if got := srv.nw.PodModes(); !slices.Equal(got, modes) {
			t.Fatalf("%s %q changed the pod modes from %v to %v", method, target, modes, got)
		}
	})
}
