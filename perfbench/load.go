package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cape/internal/server"
	"cape/internal/telemetry"
)

// capedProc is one running caped process.
type capedProc struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	done chan struct{}
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startCaped execs caped at its default flags, with only -addr set and
// its logs going to logPath.
func startCaped(bin, logPath string) (*capedProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("pick a port: %w", err)
	}
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Stdout, cmd.Stderr = f, f
	// caped dies with the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("start caped: %w", err)
	}
	p := &capedProc{cmd: cmd, base: "http://" + addr, log: f, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// stop sends SIGTERM, waits for caped to drain and exit, and kills it
// if it has not exited after 20 seconds.
func (p *capedProc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

// pid is caped's process id.
func (p *capedProc) pid() int { return p.cmd.Process.Pid }

// waitHealthy polls /healthz until it answers 200.
func (p *capedProc) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(p.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return errors.New("caped exited before /healthz answered")
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("caped not healthy after %v: %v", timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// getJSON fetches path and decodes its JSON body into v.
func (p *capedProc) getJSON(path string, v any) error {
	resp, err := http.Get(p.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// health is the part of /healthz the benchmark reads.
type health struct {
	Workers int                 `json:"workers"`
	Pool    []server.ShardStats `json:"pool"`
}

// statusBody is the part of /v1/status the benchmark reads.
type statusBody struct {
	GoVersion string                 `json:"go_version"`
	Perf      telemetry.PerfCounters `json:"perf"`
}

// scrape is one read of caped's counters from outside.
type scrape struct {
	metrics map[string]float64 // "name{labels}" -> value, and "name" -> sum over labels
	status  statusBody
}

// scrapeCounters reads /metrics and /v1/status.
func (p *capedProc) scrapeCounters() (scrape, error) {
	s := scrape{metrics: map[string]float64{}}
	resp, err := http.Get(p.base + "/metrics")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		s.metrics[series] = v
		if i := strings.IndexByte(series, '{'); i >= 0 {
			s.metrics[series[:i]] += v
		}
	}
	if err := sc.Err(); err != nil {
		return s, fmt.Errorf("read /metrics: %w", err)
	}
	if err := p.getJSON("/v1/status", &s.status); err != nil {
		return s, err
	}
	return s, nil
}

// delta is after - before for one series.
func delta(before, after scrape, series string) float64 {
	return after.metrics[series] - before.metrics[series]
}

// procCPU returns a process's user+system CPU time from /proc.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux ABI Go supports.
const clockTicks = 100

// stealTime returns the CPU time the hypervisor gave to other guests,
// summed over CPUs, from /proc/stat.
func stealTime() (time.Duration, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, errors.New("no cpu line in /proc/stat")
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parse /proc/stat steal: %w", err)
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// procHWM returns a process's peak resident set size in bytes.
func procHWM(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return 0, err
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// sample is one request the clients sent.
type sample struct {
	pos    int // position in the order the clients walked
	item   int
	status int
	err    error
	lat    time.Duration
	body   []byte
}

// drive runs a closed loop of `clients` clients over order: each client
// takes the next request, waits for the whole reply, and repeats. No
// request starts after deadline (zero = run the whole order).
func drive(base string, st *stream, order []int, clients int, deadline time.Time) ([]sample, time.Duration) {
	var next atomic.Int64
	out := make([][]sample, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{
				Timeout:   2 * time.Minute,
				Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
			}
			defer client.CloseIdleConnections()
			for {
				pos := int(next.Add(1) - 1)
				if pos >= len(order) || (!deadline.IsZero() && time.Now().After(deadline)) {
					return
				}
				out[c] = append(out[c], post(client, base, st, pos, order[pos]))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].pos < all[j].pos })
	return all, wall
}

// post sends one job and reads the whole reply.
func post(client *http.Client, base string, st *stream, pos, idx int) sample {
	start := time.Now()
	s := sample{pos: pos, item: idx}
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(st.items[idx].body))
	if err == nil {
		s.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		s.status = resp.StatusCode
	}
	s.lat = time.Since(start)
	s.err = err
	return s
}

// setupCaped starts caped, waits for /healthz, and warms it: every
// shape of the stream runs, and shards missing pooled machines get
// concurrent pairs until each holds one machine per worker. It returns
// the warm-up samples and the set-up time.
func setupCaped(bin, logPath string, st *stream, clients int) (*capedProc, []sample, time.Duration, error) {
	t0 := time.Now()
	p, err := startCaped(bin, logPath)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := p.waitHealthy(30 * time.Second); err != nil {
		p.stop()
		return nil, nil, 0, err
	}
	warm, _ := drive(p.base, st, st.warm, clients, time.Time{})
	for round := 0; ; round++ {
		var h health
		if err := p.getJSON("/healthz", &h); err != nil {
			p.stop()
			return nil, nil, 0, err
		}
		var pairs []int
		for _, idx := range firstPerShard(st) {
			key, _ := server.RoutingKey(st.items[idx].req, server.Options{})
			if created(h, key) < h.Workers {
				pairs = append(pairs, idx, idx)
			}
		}
		if len(pairs) == 0 {
			break
		}
		if round == 5 {
			p.stop()
			return nil, nil, 0, fmt.Errorf("warm-up could not build %d pooled machines per shard", h.Workers)
		}
		more, _ := drive(p.base, st, pairs, clients, time.Time{})
		warm = append(warm, more...)
	}
	return p, warm, time.Since(t0), nil
}

// firstPerShard returns one warm-up item per pool shard.
func firstPerShard(st *stream) []int {
	seen := map[string]bool{}
	var out []int
	for _, idx := range st.warm {
		key, err := server.RoutingKey(st.items[idx].req, server.Options{})
		if err != nil || seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, idx)
	}
	return out
}

func created(h health, key string) int {
	for _, s := range h.Pool {
		if s.Key == key {
			return s.Created
		}
	}
	return 0
}
