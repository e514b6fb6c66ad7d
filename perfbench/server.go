package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/frame"
)

// server is one eccserve process under test. It is started with its
// defaults plus deployment settings only: listen and metrics
// addresses, address file and key file. No tuning flag is passed, so
// a change to a default is what gets measured.
type server struct {
	cmd         *exec.Cmd
	exited      chan struct{}
	waitErr     error
	addr        string
	metricsAddr string
	pub         []byte // compressed identity from the first TPing
}

// startServer execs eccserve and returns once it has answered its
// first TPing, with the time that took.
func startServer(bin, dir, keyFile string) (*server, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	addrFile := filepath.Join(dir, "addr")
	os.Remove(addrFile)
	maddr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(dir, "server.log"))
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-metrics", maddr,
		"-key", keyFile)
	cmd.Stdout, cmd.Stderr = logf, logf
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start eccserve: %w", err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{}), metricsAddr: maddr}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	fail := func(err error) (*server, time.Duration, error) {
		s.kill()
		return nil, 0, err
	}
	deadline := t0.Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			s.addr = strings.TrimSpace(string(b))
			break
		}
		select {
		case <-s.exited:
			return fail(fmt.Errorf("eccserve exited during start-up: %v (log in %s)", s.waitErr, dir))
		default:
		}
		if time.Now().After(deadline) {
			return fail(errors.New("eccserve never published its address"))
		}
		time.Sleep(100 * time.Microsecond)
	}
	nc, err := net.Dial("tcp", s.addr)
	if err != nil {
		return fail(fmt.Errorf("dial eccserve: %w", err))
	}
	fc := frame.NewConn(nc)
	fc.SetRoundtripTimeout(10 * time.Second)
	f, err := fc.Roundtrip(1, frame.TPing)
	setup := time.Since(t0)
	fc.Close()
	if err != nil {
		return fail(fmt.Errorf("first ping: %w", err))
	}
	if f.Type != frame.TOK || len(f.Payload) != frame.KeySize {
		return fail(fmt.Errorf("first ping: response type %#x, %d bytes", f.Type, len(f.Payload)))
	}
	s.pub = append([]byte(nil), f.Payload...)
	return s, setup, nil
}

// freeAddr picks a loopback port for the metrics listener.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// stop drains the server with SIGTERM and waits for it to exit; it
// kills it if the drain takes more than 10 s.
func (s *server) stop() error {
	select {
	case <-s.exited:
		return fmt.Errorf("eccserve died during the run: %v", s.waitErr)
	default:
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
		return s.waitErr
	case <-time.After(10 * time.Second):
		s.kill()
		return errors.New("eccserve did not drain within 10s of SIGTERM")
	}
}

// kill ends the process and waits for it.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

// scrape reads /metrics into name{labels} -> value.
func (s *server) scrape() (map[string]float64, error) {
	c := http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get("http://" + s.metricsAddr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	return out, nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times.
const clockTick = 10 * time.Millisecond

// cpu returns the process's user+system CPU time so far.
func (s *server) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(b)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	k, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line")
	}
	return time.Duration(u+k) * clockTick, nil
}

// statusField reads a numeric "Name: value kB" field of
// /proc/<pid>/status.
func statusField(pid int, name string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, name+":"); ok {
			f := strings.Fields(v)
			if len(f) > 0 {
				return strconv.ParseFloat(f[0], 64)
			}
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", name, pid)
}

// peakRSSMB is the server's peak resident set size.
func (s *server) peakRSSMB() (float64, error) {
	kb, err := statusField(s.cmd.Process.Pid, "VmHWM")
	return kb / 1024, err
}

// selfCPU is this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
