package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// transformResponse is the body of a successful transform response.
type transformResponse struct {
	Model   string      `json:"model"`
	Version int         `json:"version"`
	Rows    [][]float64 `json:"rows"`
}

// request is one pre-built transform request and the response bytes a
// correct server sends for it.
type request struct {
	body []byte
	rows [][]float64 // the request rows
	want [][]float64 // TransformRowChecked of each row
	resp []byte      // encoding/json rendering of the correct response
}

// child is a running cmd/ifair-server process.
type child struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
	done chan error
}

// startServer execs the server binary with only -models and -addr set
// and waits for /readyz to answer 200. It returns the child and the time
// from exec to ready.
func startServer(ctx context.Context, bin, models string, log io.Writer) (*child, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-models", models, "-addr", addr)
	cmd.Stdout, cmd.Stderr = log, log
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start server: %w", err)
	}
	c := &child{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { c.done <- cmd.Wait() }()

	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := start.Add(30 * time.Second)
	for {
		resp, err := probe.Get(c.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, time.Since(start), nil
			}
		}
		select {
		case err := <-c.done:
			c.done <- err
			return nil, 0, fmt.Errorf("server exited before ready: %v", err)
		case <-ctx.Done():
			c.stop()
			return nil, 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, 0, errors.New("server not ready after 30s")
		}
	}
}

// stop sends SIGTERM, waits for the drain, and kills the child if it has
// not exited within ten seconds. It returns once the process has ended.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-c.done:
		c.done <- err
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		c.done <- <-c.done
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// procStatus reads a field of /proc/<pid>/status in kB.
func procStatusKB(pid int, field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			return strconv.ParseFloat(fields[0], 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", pid, field)
}

// procCPU returns the user+system CPU time a process has used, from
// /proc/<pid>/stat (clock ticks of 1/100 s, the Linux USER_HZ).
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short record", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// loadClient is the generator's HTTP client: at most conns connections
// to the server, reused across requests.
func loadClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// outcome is one request's result as the generator saw it.
type outcome struct {
	due, sent, done time.Duration // offsets from the phase start
	ok              bool
}

// phaseResult is one load phase.
type phaseResult struct {
	outcomes []outcome
	elapsed  time.Duration
}

func (p *phaseResult) counts() (sent, ok, failed int) {
	for _, o := range p.outcomes {
		if o.ok {
			ok++
		} else {
			failed++
		}
	}
	return len(p.outcomes), ok, failed
}

// send posts one request and checks the response against the expected
// transform bit for bit.
func send(ctx context.Context, client *http.Client, url string, r *request, buf *bytes.Buffer) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(r.body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	return checkResponse(buf.Bytes(), r)
}

// checkResponse reports whether body carries exactly the expected rows.
// Identical bytes settle it; otherwise the body is decoded and every
// value compared by its bits, so a server that formats the same floats
// differently still passes.
func checkResponse(body []byte, r *request) bool {
	if bytes.Equal(body, r.resp) {
		return true
	}
	var got struct {
		Rows [][]float64 `json:"rows"`
	}
	if err := json.Unmarshal(body, &got); err != nil || len(got.Rows) != len(r.want) {
		return false
	}
	for i, row := range got.Rows {
		if !sameBits(row, r.want[i]) {
			return false
		}
	}
	return true
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// openLoop sends reqs[i%len(reqs)] at each due offset, regardless of
// completions, over a client limited to its connection cap. Latency is
// timed from each request's due time.
func openLoop(ctx context.Context, client *http.Client, url string, reqs []*request, due []time.Duration) *phaseResult {
	outs := make([]outcome, len(due))
	bufs := sync.Pool{New: func() any { return new(bytes.Buffer) }}
	start := time.Now()
	forSchedule(ctx, start, due, func(i int) {
		buf := bufs.Get().(*bytes.Buffer)
		sent := time.Since(start)
		ok := send(ctx, client, url, reqs[i%len(reqs)], buf)
		outs[i] = outcome{due: due[i], sent: sent, done: time.Since(start), ok: ok}
		bufs.Put(buf)
	})
	return &phaseResult{outcomes: outs, elapsed: time.Since(start)}
}

// closedLoop runs conns clients that each send their next request as
// soon as the previous one completes, for d.
func closedLoop(ctx context.Context, client *http.Client, url string, reqs []*request, conns int, d time.Duration) *phaseResult {
	res := &phaseResult{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			var local []outcome
			for i := c; ctx.Err() == nil; i += conns {
				sent := time.Since(start)
				if sent >= d {
					break
				}
				ok := send(ctx, client, url, reqs[i%len(reqs)], &buf)
				local = append(local, outcome{due: sent, sent: sent, done: time.Since(start), ok: ok})
			}
			mu.Lock()
			res.outcomes = append(res.outcomes, local...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// scrapeMetrics fetches /metrics and returns every sample keyed by its
// full name with labels, e.g. `ifair_batch_size_sum`.
func scrapeMetrics(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
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
	return out, sc.Err()
}

// sumPrefix adds every sample whose key starts with prefix.
func sumPrefix(m map[string]float64, prefix string) float64 {
	s := 0.0
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}
