package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"repro/internal/frame"
	"repro/perfbench/inputs"
)

// grace bounds how long a phase waits for answers after its sending
// window has closed; a request still unanswered then timed out.
const grace = 5 * time.Second

// phaseSpec is one traffic phase.
type phaseSpec struct {
	Name  string
	Conns int
	// Outstanding > 0 is a closed loop with that many requests in
	// flight per connection; 0 is an open loop at Rate.
	Outstanding int
	Rate        float64 // open loop: total arrivals per second
	Dur         time.Duration
}

// connLog is everything one connection recorded in a phase, indexed by
// request id. In an open loop the schedule (idx, start) is fixed before
// the phase and sent is owned by the sender goroutine, done/status/out
// by the reader; in a closed loop one goroutine owns all of it.
type connLog struct {
	reqs   []inputs.Request
	idx    []int32 // index into reqs
	start  []int64 // ns since phase start at which the latency clock starts: due (open) or sent (closed)
	sent   []int64 // ns since phase start at which the frame was written (untraced closed loop: sent start); -1 unwritten
	done   []int64 // ns since phase start at which the answer was read
	status []status
	out    [][]byte // kept answers for postCheck

	// Open-loop generator health, owned by the sender.
	backlog []backlogSample
}

type backlogSample struct {
	at int64 // ns since phase start
	n  int   // requests due but unsent at this wake-up
}

func newConnLog(reqs []inputs.Request, n int) *connLog {
	return &connLog{
		reqs:   reqs,
		idx:    make([]int32, 0, n),
		start:  make([]int64, 0, n),
		sent:   make([]int64, 0, n),
		done:   make([]int64, 0, n),
		status: make([]status, 0, n),
		out:    make([][]byte, 0, n),
	}
}

// add appends an unwritten request slot and returns its id.
func (l *connLog) add(idx int32, start int64) uint64 {
	l.idx = append(l.idx, idx)
	l.start = append(l.start, start)
	l.sent = append(l.sent, -1)
	l.done = append(l.done, 0)
	l.status = append(l.status, stPending)
	l.out = append(l.out, nil)
	return uint64(len(l.idx) - 1)
}

// answer records the response frame f at time now; it reports whether
// the frame belonged to a pending request of this log.
func (l *connLog) answer(f frame.Frame, now int64) bool {
	if f.ID >= uint64(len(l.idx)) || l.status[f.ID] != stPending {
		return false
	}
	req := &l.reqs[l.idx[f.ID]]
	l.done[f.ID] = now
	st := judge(req, f.Type, f.Payload)
	if st == stOK && keepsPayload(req.Kind) {
		l.out[f.ID] = append([]byte(nil), f.Payload...)
	}
	l.status[f.ID] = st
	return true
}

// fail marks every unanswered request with st.
func (l *connLog) fail(st status) {
	for i, s := range l.status {
		if s == stPending {
			l.status[i] = st
		}
	}
}

// picker chooses which pool request goes next: in order (warm-up),
// or uniformly at random from a stream seeded per phase and
// connection, so the key-cache hit rate depends on the pool and the
// cache size alone, never on how the connections' sequences happen to
// line up.
type picker struct {
	n, pos int
	rnd    *rand.ChaCha8 // nil: in order
}

func inOrder(n int) *picker { return &picker{n: n} }

func randomPicks(seed uint64, phase string, conn, n int) *picker {
	var key [32]byte
	binary.LittleEndian.PutUint64(key[:], seed)
	binary.LittleEndian.PutUint64(key[8:], uint64(conn))
	copy(key[16:], "picks/"+phase)
	return &picker{n: n, rnd: rand.NewChaCha8(key)}
}

func (p *picker) next() int32 {
	if p.rnd != nil {
		return int32(p.rnd.Uint64() % uint64(p.n))
	}
	i := p.pos
	p.pos = (p.pos + 1) % p.n
	return int32(i)
}

// dial opens one frame connection to addr.
func dial(addr string) (net.Conn, *frame.Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("dial eccserve: %w", err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return nc, frame.NewConn(nc), nil
}

// closedLoop keeps k requests in flight on one connection until the
// window closes (or limit requests were sent, if limit > 0), then
// collects the stragglers. The read loop sends each replacement, so
// one goroutine owns the log. Only a traced run reads the clock again
// after each write, for the span's written time.
func closedLoop(nc net.Conn, fc *frame.Conn, l *connLog, pick *picker, k, limit int, t0 time.Time, window time.Duration, traced bool) {
	nc.SetReadDeadline(t0.Add(window + grace))
	defer nc.Close()
	stop := int64(window)
	send := func() error {
		now := int64(time.Since(t0))
		id := l.add(pick.next(), now)
		err := fc.Write(id, l.reqs[l.idx[id]].Type, l.reqs[l.idx[id]].Payload)
		l.sent[id] = now
		if traced {
			l.sent[id] = int64(time.Since(t0))
		}
		if err != nil {
			l.status[id] = stError
		}
		return err
	}
	more := func() bool {
		return (limit <= 0 || len(l.idx) < limit) && int64(time.Since(t0)) < stop
	}
	inflight := 0
	for inflight < k && more() {
		if send() != nil {
			l.fail(stError)
			return
		}
		inflight++
	}
	for inflight > 0 {
		f, err := fc.Read()
		if err != nil {
			st := stError
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				st = stTimeout
			}
			l.fail(st)
			return
		}
		if !l.answer(f, int64(time.Since(t0))) {
			l.fail(stError)
			return
		}
		inflight--
		if more() {
			if send() != nil {
				l.fail(stError)
				return
			}
			inflight++
		}
	}
}

// schedule draws Poisson arrival times (ns since phase start) at rate
// per second over window.
func schedule(seed uint64, phase string, conn int, rate float64, window time.Duration) []int64 {
	var key [32]byte
	binary.LittleEndian.PutUint64(key[:], seed)
	binary.LittleEndian.PutUint64(key[8:], uint64(conn))
	copy(key[16:], "arrivals/"+phase)
	r := rand.New(rand.NewChaCha8(key))
	var due []int64
	t := 0.0
	for {
		t += r.ExpFloat64() / rate * 1e9
		if t >= float64(window) {
			return due
		}
		due = append(due, int64(t))
	}
}

// openLoop sends each request when it falls due, whatever the state of
// earlier ones. The sender sleeps until the next due time and, because
// a timer can fire late, sends every request that has fallen due at
// each wake-up; latency is timed from the due time.
func openLoop(nc net.Conn, fc *frame.Conn, l *connLog, t0 time.Time, window time.Duration) {
	defer nc.Close()
	n := len(l.idx)
	nc.SetReadDeadline(t0.Add(window + grace))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for got := 0; got < n; got++ {
			f, err := fc.Read()
			if err != nil || f.ID >= uint64(n) {
				return
			}
			l.answer(f, int64(time.Since(t0)))
		}
	}()
	for i := 0; i < n; {
		now := int64(time.Since(t0))
		j := i
		for j < n && l.start[j] <= now {
			j++
		}
		if j > i {
			l.backlog = append(l.backlog, backlogSample{at: now, n: j - i})
		}
		for ; i < j; i++ {
			req := &l.reqs[l.idx[i]]
			if err := fc.Write(uint64(i), req.Type, req.Payload); err != nil {
				// The reader sees the broken connection and stops; the
				// unsent rest stays pending and is failed below.
				nc.Close()
				i = n
				break
			}
			l.sent[i] = int64(time.Since(t0))
		}
		if i < n {
			time.Sleep(time.Duration(l.start[i] - int64(time.Since(t0))))
		}
	}
	wg.Wait()
	st := stTimeout
	if time.Since(t0) < window+grace {
		st = stError
	}
	l.fail(st)
}

// lateness returns how late each written open-loop request was, in µs.
func (l *connLog) lateness() []float64 {
	out := make([]float64, 0, len(l.idx))
	for i := range l.idx {
		if l.sent[i] >= 0 {
			out = append(out, float64(l.sent[i]-l.start[i])/1e3)
		}
	}
	return out
}

// backlogGrew reports whether the generator's backlog in the last third
// of the window was clearly larger than in the first third.
func backlogGrew(samples []backlogSample, window time.Duration) bool {
	var first, last, nf, nl float64
	for _, s := range samples {
		switch {
		case s.at < int64(window)/3:
			first += float64(s.n)
			nf++
		case s.at >= 2*int64(window)/3:
			last += float64(s.n)
			nl++
		}
	}
	if nf == 0 || nl == 0 {
		return false
	}
	return last/nl > 2*first/nf+1
}
