package main

import (
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/frame"
	"repro/perfbench/inputs"
)

// runner drives one eccserve through the phases of a workload.
type runner struct {
	set    *inputs.Set
	srv    *server
	seed   uint64
	traced bool
}

// phaseResult is one phase's outcome, client side and server side: of
// one run of the phase, or merged over the rounds of a run.
type phaseResult struct {
	spec   phaseSpec
	round  int        // one run only
	logs   []*connLog // one run only
	counts [numStatus]int
	// Right answers only: latency in µs, and when the request's
	// latency clock started (ns since the phase started; later rounds
	// are offset so that the order holds across a merge).
	lats    []float64
	okStart []int64
	// okInWindow counts right answers read before the sending window
	// closed, over window in total; roundOps holds each merged round's
	// rate for the report.
	okInWindow  int
	window      time.Duration
	roundOps    []float64
	badAnswered int // corrupted signatures answered "invalid"
	srvCPU      time.Duration
	genCPU      time.Duration
	late        []float64 // open loop: µs each request was written after it fell due
	backlogMax  int
	backlogGrew bool
	// /metrics at the boundaries of one run, and the change across it
	// (summed over a merge).
	before, after map[string]float64
	deltas        map[string]float64
}

func (p *phaseResult) attempted() int {
	n := 0
	for _, c := range p.counts {
		n += c
	}
	return n
}

// delta is the change of a /metrics series across the phase.
func (p *phaseResult) delta(name string) float64 { return p.deltas[name] }

// opsPerSec is right answers per second of sending window, over all
// merged rounds.
func (p *phaseResult) opsPerSec() float64 { return ratio(float64(p.okInWindow), p.window.Seconds()) }

// roundOffset separates the start times of merged rounds.
const roundOffset = int64(time.Hour)

// merge folds the next round of the same phase into p.
func (p *phaseResult) merge(q *phaseResult) {
	if p.deltas == nil {
		p.spec, p.deltas = q.spec, map[string]float64{}
	}
	for i, c := range q.counts {
		p.counts[i] += c
	}
	p.lats = append(p.lats, q.lats...)
	for _, s := range q.okStart {
		p.okStart = append(p.okStart, s+int64(q.round)*roundOffset)
	}
	p.okInWindow += q.okInWindow
	p.window += q.window
	p.roundOps = append(p.roundOps, q.opsPerSec())
	p.badAnswered += q.badAnswered
	p.srvCPU += q.srvCPU
	p.genCPU += q.genCPU
	p.late = append(p.late, q.late...)
	p.backlogMax = max(p.backlogMax, q.backlogMax)
	p.backlogGrew = p.backlogGrew || q.backlogGrew
	for k, v := range q.deltas {
		p.deltas[k] += v
	}
}

// tailWindows is how many consecutive windows the phase's right
// answers are cut into for the q-quantile: each keeps at least ten
// samples beyond its quantile.
func (p *phaseResult) tailWindows(q float64) int {
	return min(max(int(float64(len(p.lats))*(1-q)/10), 1), 10)
}

// tail is the median over tailWindows consecutive windows, by start
// time and with equal sample counts, of each window's q-quantile. One
// stall (a preempted vCPU can stall a process for milliseconds) then
// moves one window's tail, not the phase's.
func (p *phaseResult) tail(q float64) float64 {
	idx := make([]int, len(p.lats))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return p.okStart[idx[a]] < p.okStart[idx[b]] })
	k := p.tailWindows(q)
	var per []float64
	for w := 0; w < k; w++ {
		var xs []float64
		for _, i := range idx[w*len(idx)/k : (w+1)*len(idx)/k] {
			xs = append(xs, p.lats[i])
		}
		per = append(per, quantile(xs, q))
	}
	return median(per)
}

// invalidMatches cross-checks the server's verify_invalid counter
// against the corrupted signatures this phase got "invalid" answers
// for; the workloads send no other invalid verification.
func (p *phaseResult) invalidMatches() bool {
	return p.delta("eccserve_verify_invalid_total") == float64(p.badAnswered)
}

// warm sends the workload's warm-up requests (key-cache fill), then
// half a second of sat traffic, before anything is timed. Any answer
// that is not right fails the run.
func (r *runner) warm(w workload) error {
	if len(r.set.Warm) > 0 {
		nc, fc, err := dial(r.srv.addr)
		if err != nil {
			return err
		}
		l := newConnLog(r.set.Warm, len(r.set.Warm))
		closedLoop(nc, fc, l, inOrder(len(r.set.Warm)), 32, len(r.set.Warm), time.Now(), time.Minute, false)
		for i, st := range l.status {
			if st != stOK {
				return fmt.Errorf("warm-up request %d (%v): %s", i, r.set.Warm[l.idx[i]].Kind, statusNames[st])
			}
		}
	}
	spec := phaseSpec{Name: "warm", Conns: w.conns, Outstanding: w.sat, Dur: 500 * time.Millisecond}
	p, err := r.runPhase(spec, 0)
	if err != nil {
		return err
	}
	if p.counts[stOK] != p.attempted() {
		return fmt.Errorf("warm-up traffic failed: %s", p.countString())
	}
	return nil
}

// runPhase runs one round of a phase on fresh connections and checks
// every answer.
func (r *runner) runPhase(spec phaseSpec, round int) (*phaseResult, error) {
	pool := r.set.Pool
	label := fmt.Sprintf("%s/%d", spec.Name, round)
	p := &phaseResult{spec: spec, round: round, window: spec.Dur}
	ncs := make([]net.Conn, spec.Conns)
	fcs := make([]*frame.Conn, spec.Conns)
	picks := make([]*picker, spec.Conns)
	for c := range ncs {
		var err error
		if ncs[c], fcs[c], err = dial(r.srv.addr); err != nil {
			for _, nc := range ncs[:c] {
				nc.Close()
			}
			return nil, err
		}
		picks[c] = randomPicks(r.seed, label, c, len(pool))
		if spec.Outstanding > 0 {
			p.logs = append(p.logs, newConnLog(pool, 1<<14))
			continue
		}
		due := schedule(r.seed, label, c, spec.Rate/float64(spec.Conns), spec.Dur)
		l := newConnLog(pool, len(due))
		for _, d := range due {
			l.add(picks[c].next(), d)
		}
		p.logs = append(p.logs, l)
	}

	var err error
	if p.before, err = r.srv.scrape(); err != nil {
		return nil, err
	}
	cpu0, err := r.srv.cpu()
	if err != nil {
		return nil, err
	}
	gen0 := selfCPU()
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := range ncs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if spec.Outstanding > 0 {
				closedLoop(ncs[c], fcs[c], p.logs[c], picks[c], spec.Outstanding, 0, t0, spec.Dur, r.traced)
			} else {
				openLoop(ncs[c], fcs[c], p.logs[c], t0, spec.Dur)
			}
		}(c)
	}
	wg.Wait()
	p.genCPU = selfCPU() - gen0
	cpu1, err := r.srv.cpu()
	if err != nil {
		return nil, err
	}
	p.srvCPU = cpu1 - cpu0
	if p.after, err = r.srv.scrape(); err != nil {
		return nil, err
	}
	p.deltas = map[string]float64{}
	for k, v := range p.after {
		p.deltas[k] = v - p.before[k]
	}

	r.postCheck(p.logs)
	for _, l := range p.logs {
		for i, st := range l.status {
			p.counts[st]++
			if st != stOK {
				continue
			}
			p.lats = append(p.lats, float64(l.done[i]-l.start[i])/1e3)
			p.okStart = append(p.okStart, l.start[i])
			if l.done[i] <= int64(spec.Dur) {
				p.okInWindow++
			}
			if l.reqs[l.idx[i]].Bad {
				p.badAnswered++
			}
		}
		if spec.Outstanding == 0 {
			p.late = append(p.late, l.lateness()...)
			for _, b := range l.backlog {
				p.backlogMax = max(p.backlogMax, b.n)
			}
			p.backlogGrew = p.backlogGrew || backlogGrew(l.backlog, spec.Dur)
		}
	}
	return p, nil
}

// postCheck runs the crypto checks on kept answers, after the phase,
// on every core; a failed check turns the answer wrong.
func (r *runner) postCheck(logs []*connLog) {
	type item struct {
		l *connLog
		i int
	}
	var items []item
	for _, l := range logs {
		for i, out := range l.out {
			if out != nil && l.status[i] == stOK {
				items = append(items, item{l, i})
			}
		}
	}
	workers := 2
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(items); k += workers {
				it := items[k]
				if !postCheck(r.set.ServerPub, &it.l.reqs[it.l.idx[it.i]], it.l.out[it.i]) {
					it.l.status[it.i] = stWrong
				}
			}
		}(w)
	}
	wg.Wait()
}

func (p *phaseResult) countString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "attempted=%d", p.attempted())
	for st := stOK; st < numStatus; st++ {
		fmt.Fprintf(&b, " %s=%d", statusNames[st], p.counts[st])
	}
	return b.String()
}

// report prints the phase's accounting and generator health.
func (p *phaseResult) report() {
	lp50, windows := median(p.lats), p.tailWindows(0.99)
	beyond := len(p.lats) / windows / 100
	fmt.Printf("phase %-4s: %s p50=%.0fus p90=%.0fus p95=%.0fus p99=%.0fus (%d samples; p99 over %d windows, %d beyond in each) ok/s=%.0f srv_cpu=%.2fs gen_cpu=%.2fs verify_invalid=%.0f/%d\n",
		p.spec.Name, p.countString(), lp50, p.tail(0.9), p.tail(0.95), p.tail(0.99), len(p.lats), windows, beyond,
		p.opsPerSec(), p.srvCPU.Seconds(), p.genCPU.Seconds(),
		p.delta("eccserve_verify_invalid_total"), p.badAnswered)
	fmt.Printf("phase %-4s: ok/s by round %.0f\n", p.spec.Name, p.roundOps)
	if beyond < 10 {
		fmt.Printf("WARN phase %s: only %d samples beyond p99\n", p.spec.Name, beyond)
	}
	if !p.invalidMatches() {
		fmt.Printf("FAIL phase %s: server verify_invalid %.0f != %d corrupted signatures answered invalid\n",
			p.spec.Name, p.delta("eccserve_verify_invalid_total"), p.badAnswered)
	}
	if p.spec.Outstanding == 0 {
		late := quantile(p.late, 0.99)
		fmt.Printf("phase %-4s: generator late_p99=%.0fus backlog_max=%d\n", p.spec.Name, late, p.backlogMax)
		if p.backlogGrew {
			fmt.Printf("WARN phase %s: generator backlog grew during the phase\n", p.spec.Name)
		}
		if late > lp50 {
			fmt.Printf("WARN phase %s: generator lateness p99 %.0fus exceeds the phase's median latency %.0fus\n", p.spec.Name, late, lp50)
		}
	}
	if p.counts[stWrong] > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: phase %s: %d wrong answers\n", p.spec.Name, p.counts[stWrong])
	}
}
