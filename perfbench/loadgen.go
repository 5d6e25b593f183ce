package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator drives an HTTP server over a fixed set of
// connections, each a worker with its own keep-alive transport, so the
// server never sees more connections than workers. An open loop sends
// each request when it falls due, whether or not earlier ones finished,
// and times it from that due time; a closed loop has each connection send
// its next request only after the previous one completed.

// Headers the benchmark sets so its server-side wrapper can match a
// request to the client's span.
const (
	hdrRequest = "X-Bench-Request"
	hdrOp      = "X-Bench-Op"
)

// request is one scheduled HTTP request.
type request struct {
	id     int64
	op     string
	method string
	target string // path and query
	body   []byte
	// due is when an open loop sends the request, from the phase start.
	due time.Duration
}

// outcome is one finished request. Times are absolute; latency runs from
// the due time in an open loop and from the send in a closed loop.
type outcome struct {
	req    *request
	status int
	body   []byte
	err    error
	// due, enq, sent and done: when the request fell due, was handed to
	// the connection queue, was taken by a connection, and completed.
	due, enq, sent, done time.Time
}

func (o *outcome) latency() time.Duration { return o.done.Sub(o.due) }

// late is how far behind its due time the request went out.
func (o *outcome) late() time.Duration { return o.sent.Sub(o.due) }

// connWait is how long the request waited for a free connection.
func (o *outcome) connWait() time.Duration { return o.sent.Sub(o.enq) }

// dispatchLate is how far behind its due time the generator itself handed
// the request on: late minus the wait for a connection.
func (o *outcome) dispatchLate() time.Duration { return o.enq.Sub(o.due) }

// loadgen sends requests to one base URL.
type loadgen struct {
	base    string
	conns   int
	timeout time.Duration
	// onDone, when set, sees every outcome on the connection's goroutine
	// as soon as it completes.
	onDone func(*outcome)
}

// connection is one worker's keep-alive client.
func (lg *loadgen) connection() *http.Client {
	return &http.Client{
		Timeout: lg.timeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// send performs one request on a connection and reads the whole body.
func send(cl *http.Client, base string, r *request, o *outcome) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	hr, err := http.NewRequest(r.method, base+r.target, body)
	if err != nil {
		o.err = err
		return
	}
	hr.Header.Set(hdrRequest, strconv.FormatInt(r.id, 10))
	hr.Header.Set(hdrOp, r.op)
	if r.body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	resp, err := cl.Do(hr)
	if err != nil {
		o.err = err
		return
	}
	o.body, o.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	o.status = resp.StatusCode
}

type job struct {
	o    *outcome
	done chan struct{} // closed when a write completes
}

// open runs an open loop: reads go out at their due times in any order
// the connections take them; writes go out in order, each once it is due
// and the previous write has completed. Outcomes keep the input order,
// reads first.
func (lg *loadgen) open(start time.Time, reads, writes []request) []outcome {
	outs := make([]outcome, len(reads)+len(writes))
	// The queue holds every request of the phase, so handing a request to
	// it never blocks the schedule behind a slow connection.
	queue := make(chan job, len(outs))
	var workers sync.WaitGroup
	for i := 0; i < lg.conns; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			cl := lg.connection()
			defer cl.CloseIdleConnections()
			for j := range queue {
				j.o.sent = time.Now()
				send(cl, lg.base, j.o.req, j.o)
				j.o.done = time.Now()
				if lg.onDone != nil {
					lg.onDone(j.o)
				}
				if j.done != nil {
					close(j.done)
				}
			}
		}()
	}
	dispatch := func(rs []request, outs []outcome, serial bool) {
		for i := range rs {
			o := &outs[i]
			o.req = &rs[i]
			o.due = start.Add(rs[i].due)
			if d := time.Until(o.due); d > 0 {
				time.Sleep(d)
			}
			j := job{o: o}
			if serial {
				j.done = make(chan struct{})
			}
			o.enq = time.Now()
			queue <- j
			if serial {
				<-j.done
			}
		}
	}
	var gens sync.WaitGroup
	gens.Add(2)
	go func() { defer gens.Done(); dispatch(reads, outs[:len(reads)], false) }()
	go func() { defer gens.Done(); dispatch(writes, outs[len(reads):], true) }()
	gens.Wait()
	close(queue)
	workers.Wait()
	return outs
}

// closed runs a closed loop: each connection sends the next read as soon
// as its previous request completed. Writes, when given, are interleaved
// in order, one at a time: a connection about to send takes the next
// write instead once it is due and the previous write has completed.
// Writes come in pairs (a fail and its repair). Reads stop when they run
// out; if that leaves a pair half sent, the loop sends its second write.
// The outcomes of reads come first, then those of the writes sent.
func (lg *loadgen) closed(start time.Time, reads, writes []request) []outcome {
	readOuts := make([]outcome, len(reads))
	writeOuts := make([]outcome, len(writes))
	var next atomic.Int64
	var mu sync.Mutex
	nextWrite, writing, stopped := 0, false, false
	takeWrite := func(force bool) int {
		mu.Lock()
		defer mu.Unlock()
		if writing || nextWrite >= len(writes) {
			return -1
		}
		if !force && (stopped || time.Since(start) < writes[nextWrite].due) {
			return -1
		}
		writing = true
		nextWrite++
		return nextWrite - 1
	}
	doneWrite := func() {
		mu.Lock()
		writing = false
		mu.Unlock()
	}
	run := func(cl *http.Client, r *request, o *outcome) {
		o.req = r
		o.sent = time.Now()
		o.due, o.enq = o.sent, o.sent
		send(cl, lg.base, r, o)
		o.done = time.Now()
		if lg.onDone != nil {
			lg.onDone(o)
		}
	}
	var workers sync.WaitGroup
	for i := 0; i < lg.conns; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			cl := lg.connection()
			defer cl.CloseIdleConnections()
			for {
				if wi := takeWrite(false); wi >= 0 {
					run(cl, &writes[wi], &writeOuts[wi])
					doneWrite()
					continue
				}
				ri := int(next.Add(1)) - 1
				if ri >= len(reads) {
					mu.Lock()
					stopped = true
					mu.Unlock()
					return
				}
				run(cl, &reads[ri], &readOuts[ri])
			}
		}()
	}
	workers.Wait()
	// Finish an open write pair so the next phase starts from the state
	// this one started from.
	if nextWrite%2 == 1 {
		cl := lg.connection()
		wi := takeWrite(true)
		run(cl, &writes[wi], &writeOuts[wi])
		cl.CloseIdleConnections()
	}
	return append(readOuts, writeOuts[:nextWrite]...)
}

// check reports why an outcome failed, or "" when it succeeded.
func (o *outcome) check() string {
	switch {
	case o.err != nil:
		return fmt.Sprintf("%s #%d: %v", o.req.op, o.req.id, o.err)
	case o.status != http.StatusOK:
		return fmt.Sprintf("%s #%d: status %d: %s", o.req.op, o.req.id, o.status, bytes.TrimSpace(o.body))
	}
	return ""
}
