package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// session drives one terids-serve over loopback with two connections: one
// for POST /ingest?wait=1, one for the /results?from=0 tail.
type session struct {
	base   string
	in     *inputs
	ingest *http.Client
	tail   *tail
	sent   int // arrivals acknowledged so far; arrival i has engine seq i
	failed int // arrivals of POSTs that did not come back 200 with all lines accepted
	body   []byte
	// Per-POST timing of the open-loop phase.
	due, send, ack []time.Time
	postFirst      []int // first arrival of each timed POST
}

// newClient returns a client that holds at most one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
}

func newSession(base string, in *inputs) (*session, error) {
	s := &session{base: base, in: in, ingest: newClient()}
	t, err := openTail(base)
	if err != nil {
		return nil, err
	}
	s.tail = t
	return s, nil
}

func (s *session) close() {
	s.tail.close()
	s.ingest.CloseIdleConnections()
}

// post sends arrivals [s.sent, s.sent+n) as one request and waits for it.
func (s *session) post(n int) error {
	s.body = s.body[:0]
	for i := s.sent; i < s.sent+n; i++ {
		s.body = s.in.appendLine(s.body, i)
	}
	resp, err := s.ingest.Post(s.base+"/ingest?wait=1", "application/x-ndjson", bytes.NewReader(s.body))
	if err != nil {
		s.failed += n
		return err
	}
	var reply struct {
		Accepted int    `json:"accepted"`
		Error    string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&reply)
	resp.Body.Close()
	if err == nil && (resp.StatusCode != http.StatusOK || reply.Accepted != n) {
		err = fmt.Errorf("POST /ingest: status %d, accepted %d of %d: %s", resp.StatusCode, reply.Accepted, n, reply.Error)
	}
	if err != nil {
		s.failed += n
		return err
	}
	s.sent += n
	return nil
}

// maxInFlight caps arrivals acknowledged but not yet on the tail, well under
// terids-serve's 4096-result replay ring, so the ring-paced tail never falls
// off the ring. The engine's own bounded queues normally bind first.
const maxInFlight = 2048

// closedLoop posts back to back for dur and returns the arrivals it sent
// and the time of its first POST.
func (s *session) closedLoop(dur time.Duration) (first, n int, start time.Time, err error) {
	first, start = s.sent, time.Now()
	end := start.Add(dur)
	for time.Now().Before(end) {
		if int64(s.sent)-s.tail.n.Load() > maxInFlight {
			time.Sleep(200 * time.Microsecond)
			continue
		}
		if err := s.post(s.in.wl.batch); err != nil {
			return first, s.sent - first, start, err
		}
	}
	return first, s.sent - first, start, nil
}

// openLoop posts at a constant rate for dur. POST k is due at t0 + k·B/rate
// whether or not earlier POSTs have returned; every arrival's latency is
// measured from its POST's due time, so a stall charges the arrivals queued
// behind it.
func (s *session) openLoop(dur time.Duration, rate float64) (n int, err error) {
	B := s.in.wl.batch
	interval := time.Duration(float64(B) / rate * float64(time.Second))
	posts := int(dur / interval)
	first := s.sent
	t0 := time.Now().Add(5 * time.Millisecond)
	for k := 0; k < posts; k++ {
		due := t0.Add(time.Duration(k) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		s.due = append(s.due, due)
		s.send = append(s.send, time.Now())
		s.postFirst = append(s.postFirst, s.sent)
		if err := s.post(B); err != nil {
			s.ack = append(s.ack, time.Now())
			return s.sent - first, err
		}
		s.ack = append(s.ack, time.Now())
	}
	return s.sent - first, nil
}

// drain waits until the tail has seen every acknowledged arrival.
func (s *session) drain(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for s.tail.n.Load() < int64(s.sent) {
		if s.tail.finished() {
			return fmt.Errorf("tail ended after %d of %d results: %v", s.tail.n.Load(), s.sent, s.tail.err)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("tail saw %d of %d results within %s", s.tail.n.Load(), s.sent, timeout)
		}
		time.Sleep(500 * time.Microsecond)
	}
	return nil
}

// tail is the live /results?from=0 reader. Its goroutine owns lines and
// times until done is closed; n publishes progress.
type tail struct {
	cancel context.CancelFunc
	n      atomic.Int64
	lines  [][]byte
	times  []time.Time
	err    error
	done   chan struct{}
}

func openTail(base string) (*tail, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/results?from=0", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	client := newClient()
	resp, err := client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET /results?from=0: status %d", resp.StatusCode)
	}
	t := &tail{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(t.done)
		defer client.CloseIdleConnections()
		defer resp.Body.Close()
		br := bufio.NewReaderSize(resp.Body, 64<<10)
		for {
			line, err := br.ReadBytes('\n')
			if err != nil {
				t.err = err
				return
			}
			t.lines = append(t.lines, line)
			t.times = append(t.times, time.Now())
			t.n.Store(int64(len(t.lines)))
		}
	}()
	return t, nil
}

func (t *tail) finished() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// close stops the reader and waits for it; lines and times are then safe
// to read.
func (t *tail) close() {
	t.cancel()
	<-t.done
}
