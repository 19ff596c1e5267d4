package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Daemon lifecycle for the tcp_* workloads: the real origind and cdnsim
// binaries are built from the checkout, started on ephemeral loopback
// ports (the port is read off each daemon's own "listening on" log
// line, so nothing is fixed and parallel runs cannot collide), polled
// until they accept, and killed and waited for on every exit path.

const (
	daemonStartTimeout = 20 * time.Second
	buildTimeout       = 5 * time.Minute
)

var (
	listenRe  = regexp.MustCompile(`listening on (\S+?:\d+)`)
	metricsRe = regexp.MustCompile(`metrics on http://(\S+?:\d+)/metrics`)
)

// buildDaemons compiles cmd/origind and cmd/cdnsim from the checkout at
// root into a fresh directory under root/.bench_build and returns it.
func buildDaemons(ctx context.Context, root string) (string, error) {
	base := filepath.Join(root, buildDirName)
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(base, "daemons-")
	if err != nil {
		return "", err
	}
	ctx, cancel := context.WithTimeout(ctx, buildTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(os.PathSeparator), "./cmd/origind", "./cmd/cdnsim")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		return "", fmt.Errorf("go build daemons: %w\n%s", err, out)
	}
	return dir, nil
}

// daemon is one running origind or cdnsim process.
type daemon struct {
	name        string
	cmd         *exec.Cmd
	addr        string // service listener
	metricsAddr string // /metrics, /debug/pprof, /debug/traces

	mu   sync.Mutex
	logs []string      // last few stderr lines, for start-up failures
	done chan struct{} // closed once the process has been waited for
}

// startDaemon runs bin with args (and env added to its environment),
// waits for its service and metrics listeners to be announced on stderr
// and for the service port to accept a connection. On any failure the
// process is killed and waited for before the error is returned.
func startDaemon(ctx context.Context, name, bin string, env []string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
	// The daemon dies with the benchmark process even if the benchmark
	// is killed outright and never reaches its own clean-up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, done: make(chan struct{})}
	addrs := make(chan [2]string, 2) // sized to the two sends below
	go d.watch(stderr, addrs)

	timeout := time.NewTimer(daemonStartTimeout)
	defer timeout.Stop()
	for d.addr == "" || d.metricsAddr == "" {
		select {
		case a := <-addrs:
			if a[0] == "listen" {
				d.addr = a[1]
			} else {
				d.metricsAddr = a[1]
			}
		case <-d.done:
			return nil, fmt.Errorf("%s exited during start-up:\n%s", name, d.tailLogs())
		case <-timeout.C:
			d.stop()
			return nil, fmt.Errorf("%s did not announce its listeners within %v:\n%s", name, daemonStartTimeout, d.tailLogs())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		}
	}
	if err := waitAccepting(ctx, d.addr, daemonStartTimeout); err != nil {
		d.stop()
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

// watch drains the daemon's stderr, reports the listener addresses it
// announces, and waits for the process once the pipe closes.
func (d *daemon) watch(stderr io.Reader, addrs chan<- [2]string) {
	defer close(d.done)
	sc := bufio.NewScanner(stderr)
	var sawListen, sawMetrics bool
	for sc.Scan() {
		line := sc.Text()
		d.mu.Lock()
		if len(d.logs) == 20 {
			d.logs = d.logs[1:]
		}
		d.logs = append(d.logs, line)
		d.mu.Unlock()
		if m := metricsRe.FindStringSubmatch(line); m != nil && !sawMetrics {
			sawMetrics = true
			addrs <- [2]string{"metrics", m[1]}
		} else if m := listenRe.FindStringSubmatch(line); m != nil && !sawListen {
			sawListen = true
			addrs <- [2]string{"listen", m[1]}
		}
	}
	_ = d.cmd.Wait() // a killed daemon's exit status carries no information
}

func (d *daemon) tailLogs() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.logs, "\n")
}

// stop kills the daemon and returns once it has been waited for. Safe
// on a nil daemon and safe to call twice.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Kill() // already-exited is fine
	<-d.done
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// waitAccepting polls addr until a TCP connect succeeds.
func waitAccepting(ctx context.Context, addr string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			conn.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not accepting after %v: %w", addr, limit, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

var scrapeClient = &http.Client{Timeout: 10 * time.Second}

// get fetches one path off the daemon's debug listener.
func (d *daemon) get(path string) ([]byte, error) {
	resp, err := scrapeClient.Get("http://" + d.metricsAddr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s%s: HTTP %d", d.name, path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// counters scrapes the daemon's Prometheus /metrics page.
func (d *daemon) counters() ([]series, error) {
	body, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parsePrometheus(string(body)), nil
}

// totalAlloc reads the daemon's cumulative heap allocation off the
// MemStats dump pprof appends to its text heap profile.
func (d *daemon) totalAlloc() (uint64, error) {
	body, err := d.get("/debug/pprof/allocs?debug=1")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			return strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
		}
	}
	return 0, errors.New(d.name + ": no TotalAlloc in pprof output")
}

// usage is a point-in-time reading of a daemon's cumulative costs.
type usage struct {
	cpu   time.Duration
	alloc uint64
}

func (d *daemon) usage() (usage, error) {
	cpu, err := pidCPU(d.pid())
	if err != nil {
		return usage{}, err
	}
	alloc, err := d.totalAlloc()
	if err != nil {
		return usage{}, err
	}
	return usage{cpu: cpu, alloc: alloc}, nil
}
