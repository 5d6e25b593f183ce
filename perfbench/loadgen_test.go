package main

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

// stallServer answers every request at once, except that the request
// with id stallID holds a lock every request takes for stall: the whole
// server stops, as flatd's readers do behind a link event's write lock.
func stallServer(stallID int64, stall time.Duration) *httptest.Server {
	var mu sync.Mutex
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseInt(r.Header.Get(hdrRequest), 10, 64)
		mu.Lock()
		if id == stallID {
			time.Sleep(stall)
		}
		mu.Unlock()
		w.Write([]byte("ok"))
	}))
}

func TestOpenLoopCountsStall(t *testing.T) {
	const (
		rate  = 200
		total = 300 // 1.5 s
		stall = 300 * time.Millisecond
	)
	reads := make([]request, total)
	for i := range reads {
		reads[i] = request{id: int64(i + 1), op: "routes", method: http.MethodGet, target: "/",
			due: time.Duration(i) * time.Second / rate}
	}
	stallID := int64(rate/2 + 1) // due at 0.5 s
	srv := stallServer(stallID, stall)
	defer srv.Close()
	lg := &loadgen{base: srv.URL, conns: 2, timeout: 10 * time.Second}
	outs := lg.open(time.Now(), reads, nil)

	stalled := outs[stallID-1]
	if stalled.check() != "" {
		t.Fatal(stalled.check())
	}
	// The server holds its lock for stall after the stalled request
	// arrives, so nothing due in that window completes before stallEnd. The
	// window opens a little after the send, once the stalled request holds
	// the lock.
	stallStart, stallEnd := stalled.sent.Add(5*time.Millisecond), stalled.sent.Add(stall)
	var maxLate time.Duration
	wait := time.Duration(0)
	inStall := 0
	for i := range outs {
		o := &outs[i]
		if msg := o.check(); msg != "" {
			t.Fatal(msg)
		}
		maxLate = max(maxLate, o.late())
		wait += o.connWait()
		// A request due during the stall must carry the rest of the stall
		// in its latency, measured from its due time.
		if o.due.After(stallStart) && o.due.Before(stallEnd) {
			inStall++
			if rest := stallEnd.Sub(o.due); o.latency() < rest {
				t.Errorf("request %d due %v before the stall ended reports %v latency", o.req.id, rest, o.latency())
			}
		}
	}
	if inStall < rate*int(stall)/int(time.Second)/2 {
		t.Fatalf("only %d requests fell due during the stall", inStall)
	}
	if maxLate < stall/2 {
		t.Errorf("max lateness %v does not show a %v stall", maxLate, stall)
	}
	if wait < stall {
		t.Errorf("total connection wait %v does not show a %v stall", wait, stall)
	}
}

func TestClosedLoopStallDoesNotInflateLaterRequests(t *testing.T) {
	const stall = 300 * time.Millisecond
	reads := make([]request, 50)
	for i := range reads {
		reads[i] = request{id: int64(i + 1), op: "routes", method: http.MethodGet, target: "/"}
	}
	srv := stallServer(10, stall)
	defer srv.Close()
	lg := &loadgen{base: srv.URL, conns: 1, timeout: 10 * time.Second}
	outs := lg.closed(time.Now(), reads, nil)
	if len(outs) != len(reads) {
		t.Fatalf("%d outcomes", len(outs))
	}
	for i := range outs {
		o := &outs[i]
		switch {
		case o.req.id == 10 && o.latency() < stall:
			t.Errorf("stalled request reports %v", o.latency())
		case o.req.id > 10 && o.latency() > stall/4:
			t.Errorf("request %d after the stall reports %v", o.req.id, o.latency())
		}
	}
}

// TestClosedLoopWritesInOrder checks that interleaved writes go out one at
// a time in order, and that a cut pair is completed.
func TestClosedLoopWritesInOrder(t *testing.T) {
	var mu sync.Mutex
	inFlight, maxInFlight := 0, 0
	var order []int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseInt(r.Header.Get(hdrRequest), 10, 64)
		if r.Method == http.MethodPost {
			mu.Lock()
			inFlight++
			maxInFlight = max(maxInFlight, inFlight)
			order = append(order, id)
			mu.Unlock()
			time.Sleep(2 * time.Millisecond)
			mu.Lock()
			inFlight--
			mu.Unlock()
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	reads := make([]request, 400)
	for i := range reads {
		reads[i] = request{id: int64(i + 1), op: "routes", method: http.MethodGet, target: "/"}
	}
	var writes []request
	for i := 0; i < 100; i++ {
		writes = append(writes, request{id: int64(1000 + i), op: "fail", method: http.MethodPost, target: "/", body: []byte("{}"),
			due: time.Duration(i) * time.Millisecond})
	}
	lg := &loadgen{base: srv.URL, conns: 2, timeout: 10 * time.Second}
	outs := lg.closed(time.Now(), reads, writes)
	if maxInFlight != 1 {
		t.Errorf("%d writes in flight at once", maxInFlight)
	}
	if len(order)%2 != 0 || len(order) == 0 {
		t.Errorf("%d writes sent; want a whole number of pairs", len(order))
	}
	for i, id := range order {
		if id != int64(1000+i) {
			t.Fatalf("write %d is request %d", i, id)
		}
	}
	if len(outs) != len(reads)+len(order) {
		t.Errorf("%d outcomes for %d reads and %d writes", len(outs), len(reads), len(order))
	}
}
