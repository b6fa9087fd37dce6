package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"rasc/internal/gosrc"
)

// opTimeout bounds every operation; a slower one counts as failed.
const opTimeout = 30 * time.Second

// reaper tracks what the benchmark must undo — running child processes,
// scratch directories — so that a signal cleans up as a normal exit
// does. Once it is stopping, nothing new may start.
type reaper struct {
	mu       sync.Mutex
	stopping bool
	children map[*child]bool
	dirs     map[string]bool
}

var live = &reaper{children: map[*child]bool{}, dirs: map[string]bool{}}

var errStopping = errors.New("stopping")

func (r *reaper) stopped() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stopping
}

// stop makes starting anything new fail, then kills every running child
// and waits until each has exited. The work that used them fails and
// unwinds.
func (r *reaper) stop() {
	r.mu.Lock()
	r.stopping = true
	var running []*child
	for c := range r.children {
		running = append(running, c)
	}
	r.mu.Unlock()
	for _, c := range running {
		c.kill()
	}
}

// cleanup stops, then removes every scratch directory still there.
func (r *reaper) cleanup() {
	r.stop()
	r.mu.Lock()
	dirs := r.dirs
	r.dirs = map[string]bool{}
	r.mu.Unlock()
	for dir := range dirs {
		removeAll(dir)
	}
}

// scratchDir creates a fresh directory under root/.bench_build/run. The
// returned release removes it.
func scratchDir(root, name string) (dir string, release func(), err error) {
	parent, err := filepath.Abs(filepath.Join(root, ".bench_build", "run"))
	if err != nil {
		return "", nil, err
	}
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", nil, err
	}
	live.mu.Lock()
	defer live.mu.Unlock()
	if live.stopping {
		return "", nil, errStopping
	}
	if dir, err = os.MkdirTemp(parent, name+"-"); err != nil {
		return "", nil, err
	}
	live.dirs[dir] = true
	return dir, func() {
		live.mu.Lock()
		delete(live.dirs, dir)
		live.mu.Unlock()
		removeAll(dir)
	}, nil
}

// removeAll removes dir, trying again for a second while the removal
// fails, as it can while a killed child's files are still being closed.
func removeAll(dir string) {
	for range 100 {
		if os.RemoveAll(dir) == nil {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// child is a started process, waited for in the background.
type child struct {
	cmd    *exec.Cmd
	exited chan struct{}
	err    error // Wait's result, once exited is closed
}

// startChild starts cmd, unless the benchmark is stopping.
func startChild(cmd *exec.Cmd) (*child, error) {
	live.mu.Lock()
	defer live.mu.Unlock()
	if live.stopping {
		return nil, errStopping
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, exited: make(chan struct{})}
	go func() {
		c.err = cmd.Wait()
		close(c.exited)
	}()
	live.children[c] = true
	return c, nil
}

// kill kills the child and waits until it has exited.
func (c *child) kill() {
	c.cmd.Process.Kill()
	c.wait()
}

// wait waits until the child has exited and returns Wait's error.
func (c *child) wait() error {
	<-c.exited
	live.mu.Lock()
	delete(live.children, c)
	live.mu.Unlock()
	return c.err
}

// runToEnd runs cmd as a child and waits for it.
func runToEnd(cmd *exec.Cmd) error {
	c, err := startChild(cmd)
	if err != nil {
		return err
	}
	return c.wait()
}

// vmHWM reads a process's resident-set high-water mark in MB. It is the
// process's own: ru_maxrss is not, since a child this process starts
// inherits this process's high-water mark.
func vmHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// binaries are the programs under test, built from the tree.
type binaries struct{ gocheck, gocheckd string }

// buildBinaries builds gocheck and gocheckd from the repository at root
// into root/.bench_build/bin. Builds are not timed.
func buildBinaries(root string) (binaries, error) {
	bin, err := filepath.Abs(filepath.Join(root, ".bench_build", "bin"))
	if err != nil {
		return binaries{}, err
	}
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return binaries{}, err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/gocheck", "./cmd/gocheckd")
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := runToEnd(cmd); err != nil {
		return binaries{}, fmt.Errorf("building gocheck and gocheckd: %v\n%s", err, out.Bytes())
	}
	return binaries{filepath.Join(bin, "gocheck"), filepath.Join(bin, "gocheckd")}, nil
}

// writeFiles writes files into dir.
func writeFiles(dir string, files ...gosrc.File) error {
	for _, f := range files {
		if err := os.WriteFile(filepath.Join(dir, f.Name), []byte(f.Src), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// cliRun is one measured gocheck process.
type cliRun struct {
	wall   time.Duration
	rssMB  float64
	stdout []byte
}

// runGocheck runs `gocheck -format sarif -cache-dir cache .` in src and
// times the process from start to exit. Exit status 3 (findings) is the
// expected outcome; 0 is accepted too. Its peak RSS is its VmHWM as last
// read before it exited, sampled every millisecond.
func runGocheck(bin, src, cache string) (cliRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, "-format", "sarif", "-cache-dir", cache, ".")
	cmd.Dir = src
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	c, err := startChild(cmd)
	if err != nil {
		return cliRun{}, err
	}
	var peak float64
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for running := true; running; {
		if mb, err := vmHWM(cmd.Process.Pid); err == nil {
			peak = max(peak, mb)
		}
		select {
		case <-c.exited:
			running = false
		case <-tick.C:
		}
	}
	wall := time.Since(start)
	err = c.wait()
	var ee *exec.ExitError
	if errors.As(err, &ee) && ee.ExitCode() == 3 {
		err = nil
	}
	if err != nil {
		return cliRun{}, fmt.Errorf("gocheck: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return cliRun{wall: wall, rssMB: peak, stdout: stdout.Bytes()}, nil
}

// daemon is one running gocheckd.
type daemon struct {
	*child
	addr   string
	stderr bytes.Buffer
}

// startDaemon starts gocheckd on a free loopback port with a fresh
// cache directory and waits until it answers /v1/health. It retries
// with another port when the chosen one was taken in between.
func startDaemon(bin, cacheDir string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freePort()
		if err != nil {
			return nil, err
		}
		d := &daemon{addr: addr}
		cmd := exec.Command(bin, "-addr", addr, "-cache-dir", cacheDir, "-log-level", "error")
		cmd.Stderr = &d.stderr
		if d.child, err = startChild(cmd); err != nil {
			return nil, fmt.Errorf("starting gocheckd: %w", err)
		}
		if lastErr = d.waitHealthy(); lastErr == nil {
			return d, nil
		}
		d.stop()
	}
	return nil, lastErr
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func (d *daemon) waitHealthy() error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(opTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("gocheckd exited early: %s", strings.TrimSpace(d.stderr.String()))
		default:
		}
		resp, err := hc.Get("http://" + d.addr + "/v1/health")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("gocheckd did not become healthy within %v", opTimeout)
}

// peakRSSMB reads the daemon's resident-set high-water mark.
func (d *daemon) peakRSSMB() (float64, error) { return vmHWM(d.cmd.Process.Pid) }

// stop asks the daemon to drain and exit, kills it if it does not
// within ten seconds, and waits until it is gone.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
	}
	d.kill()
}
