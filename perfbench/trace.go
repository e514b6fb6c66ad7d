package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/frame"
)

// pingProbes is enough TPings for the server's 10 ms CPU tick to
// resolve the per-ping CPU to 1 µs.
const pingProbes = 10000

// traceExtras computes the load-side per-layer metrics of a traced
// run: the server's view per phase from /metrics and /proc, the
// generator's health, a TPing probe of the frame layer, and the
// tracing overhead from an untraced repeat of the sat rounds.
func (r *runner) traceExtras(phases []*phaseResult) (map[string]metric, error) {
	m := map[string]metric{}
	var hits, misses, builds, evicts, extractions, shed, ok, attempted float64
	var gen time.Duration
	var late []float64
	backlog := 0
	for _, p := range phases {
		n := p.spec.Name
		pok := float64(p.counts[stOK])
		batches := p.delta("eccserve_batches_total")
		m["eccserve.batch_mean."+n] = metric{ratio(p.delta("eccserve_batch_size_sum"), batches), "count"}
		m["eccserve.batch1_frac."+n] = metric{ratio(p.delta(`eccserve_batch_size_bucket{le="1"}`), batches), "frac"}
		m["eccserve.cpu_us_per_op."+n] = metric{ratio(float64(p.srvCPU.Microseconds()), pok), "us"}
		if n != "sat" {
			m["tail."+n+"_p99_us"] = metric{p.tail(0.99), "us"}
		}
		hits += p.delta("eccserve_keycache_hits_total")
		misses += p.delta("eccserve_keycache_misses_total")
		builds += p.delta("eccserve_keycache_builds_total")
		evicts += p.delta("eccserve_keycache_evictions_total")
		extractions += p.delta("eccserve_extractions_total")
		shed += p.delta("eccserve_shed_total")
		ok += pok
		attempted += float64(p.attempted())
		gen += p.genCPU
		late = append(late, p.late...)
		backlog = max(backlog, p.backlogMax)
	}
	m["eccserve.keycache_hit_frac"] = metric{ratio(hits, hits+misses), "frac"}
	m["eccserve.keycache_builds_per_op"] = metric{ratio(builds, ok), "count"}
	m["eccserve.keycache_evictions_per_op"] = metric{ratio(evicts, ok), "count"}
	m["eccserve.extractions_per_op"] = metric{ratio(extractions, ok), "count"}
	m["eccserve.shed_frac"] = metric{ratio(shed, attempted), "frac"}
	m["gen.late_p99_us"] = metric{quantile(late, 0.99), "us"}
	m["gen.backlog_max"] = metric{float64(backlog), "count"}
	m["gen.cpu_us_per_op"] = metric{ratio(float64(gen.Microseconds()), ok), "us"}

	rtt, cpu, err := r.pingProbe(pingProbes)
	if err != nil {
		return nil, err
	}
	m["frame.ping_rtt_p50_us"] = metric{rtt, "us"}
	m["frame.ping_srv_cpu_us"] = metric{cpu, "us"}

	// The untraced repeat runs as many sat rounds as the traced run did,
	// so both sides are medians over the same number of rounds.
	traced := phases[len(phases)-1]
	plain := &phaseResult{}
	r.traced = false
	for round := rounds; round < 2*rounds; round++ {
		p, err := r.runPhase(traced.spec, round)
		if err != nil {
			return nil, err
		}
		plain.merge(p)
	}
	r.traced = true
	if plain.counts[stWrong] > 0 {
		return nil, fmt.Errorf("untraced sat repeat: %d wrong answers", plain.counts[stWrong])
	}
	opsT, opsU := traced.opsPerSec(), plain.opsPerSec()
	m["trace.overhead_sat_ops_frac"] = metric{ratio(opsU-opsT, opsU), "frac"}
	cpuT := ratio(float64(traced.genCPU.Microseconds()), float64(traced.counts[stOK]))
	cpuU := ratio(float64(plain.genCPU.Microseconds()), float64(plain.counts[stOK]))
	m["trace.overhead_gen_cpu_us_per_op"] = metric{cpuT - cpuU, "us"}
	return m, nil
}

// pingProbe times n sequential TPing round trips: the frame layer and
// the server's connection handling, with no engine work.
func (r *runner) pingProbe(n int) (rttP50, srvCPUPerPing float64, err error) {
	nc, fc, err := dial(r.srv.addr)
	if err != nil {
		return 0, 0, err
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(time.Minute))
	rtts := make([]float64, 0, n)
	cpu0, err := r.srv.cpu()
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i < n; i++ {
		t := time.Now()
		f, err := fc.Roundtrip(uint64(i), frame.TPing)
		if err != nil {
			return 0, 0, fmt.Errorf("ping probe: %w", err)
		}
		rtts = append(rtts, float64(time.Since(t).Nanoseconds())/1e3)
		if f.Type != frame.TOK || string(f.Payload) != string(r.srv.pub) {
			return 0, 0, errors.New("ping probe: wrong answer")
		}
	}
	cpu1, err := r.srv.cpu()
	if err != nil {
		return 0, 0, err
	}
	return median(rtts), float64((cpu1 - cpu0).Microseconds()) / float64(n), nil
}

// writeTrace writes the request spans of every phase run and the
// /metrics counters at its boundaries. Times are ns since the phase
// run started; a request span runs start (due, or sent in a closed
// loop) -> written -> done and carries the request id. Phase runs are
// labelled <phase>/<round>.
func (r *runner) writeTrace(out, name string, seed uint64, phases []*phaseResult) error {
	dir := filepath.Join(out, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-%d.spans", name, seed)))
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# perfbench trace workload=%s seed=%d\n", name, seed)
	fmt.Fprintln(w, "# counter <phase> <before|after> <series> <value>")
	fmt.Fprintln(w, "# req <phase> <conn> <id> <kind> <start_ns> <written_ns> <done_ns> <status>")
	for _, p := range phases {
		for _, edge := range []struct {
			name string
			m    map[string]float64
		}{{"before", p.before}, {"after", p.after}} {
			keys := make([]string, 0, len(edge.m))
			for k := range edge.m {
				if strings.HasPrefix(k, "eccserve_") {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(w, "counter %s/%d %s %s %g\n", p.spec.Name, p.round, edge.name, k, edge.m[k])
			}
		}
		for c, l := range p.logs {
			for i := range l.idx {
				fmt.Fprintf(w, "req %s/%d %d %d %v %d %d %d %s\n", p.spec.Name, p.round, c, i,
					l.reqs[l.idx[i]].Kind, l.start[i], l.sent[i], l.done[i], statusNames[l.status[i]])
			}
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// runLayers runs the in-process layer replay on the same seed and
// returns its metrics.
func runLayers(bin, out, name string, seed uint64, outstanding int) (map[string]metric, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(bin, "perfbench-layers"),
		"-workload", name,
		"-seed", fmt.Sprint(seed),
		"-outstanding", fmt.Sprint(outstanding),
		"-trace-out", filepath.Join(out, "trace", fmt.Sprintf("%s-%d.layers", name, seed)))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Println(l)
	}
	var m map[string]metric
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &m); err != nil {
		return nil, fmt.Errorf("layer replay output: %w", err)
	}
	return m, nil
}

// cpuInfo returns the CPU model and which of the carry-less multiply
// and GF(2^8) instruction flags the host has.
func cpuInfo() (model, flags string) {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown", "unknown"
	}
	var have []string
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(k) {
		case "model name":
			if model == "" {
				model = strings.TrimSpace(v)
			}
		case "flags":
			if have == nil {
				set := map[string]bool{}
				for _, f := range strings.Fields(v) {
					set[f] = true
				}
				for _, f := range []string{"pclmulqdq", "vpclmulqdq", "gfni"} {
					if set[f] {
						have = append(have, f)
					} else {
						have = append(have, "no-"+f)
					}
				}
			}
		}
	}
	return model, strings.Join(have, ",")
}

// commit is the revision under test, as run.sh found it.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}
