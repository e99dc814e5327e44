package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is one invocation's environment: the binary under test, the work
// directory, and every daemon and run directory it started, so cleanup
// can stop and remove them on success, failure and interrupt alike.
type env struct {
	damctl string
	work   string
	tiny   bool
	binKey string // short hash of the damctl and loadbench binaries; keys fixtures and exact counts

	mu      sync.Mutex
	live    map[*daemon]bool
	runDirs map[string]bool
}

func newEnv(damctl, work string, tiny bool) (*env, error) {
	abs, err := filepath.Abs(damctl)
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// The key covers both binaries: a fixture or count record written by
	// another build of loadbench may differ.
	h := sha256.New()
	for _, bin := range []string{abs, self} {
		data, err := os.ReadFile(bin)
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", bin, err)
		}
		h.Write(data)
	}
	sum := h.Sum(nil)
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	return &env{
		damctl:  abs,
		work:    work,
		tiny:    tiny,
		binKey:  hex.EncodeToString(sum[:6]),
		live:    map[*daemon]bool{},
		runDirs: map[string]bool{},
	}, nil
}

// cleanup kills every daemon still running and removes every run
// directory. It is safe to call more than once.
func (e *env) cleanup() {
	e.mu.Lock()
	ds := make([]*daemon, 0, len(e.live))
	for d := range e.live {
		ds = append(ds, d)
	}
	dirs := make([]string, 0, len(e.runDirs))
	for dir := range e.runDirs {
		dirs = append(dirs, dir)
	}
	e.mu.Unlock()
	for _, d := range ds {
		d.kill()
	}
	for _, dir := range dirs {
		e.removeRunDir(dir)
	}
}

// newRunDir makes a fresh directory for one daemon instance's data.
func (e *env) newRunDir(prefix string) (string, error) {
	root := filepath.Join(e.work, "run")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(root, prefix+"-")
	if err != nil {
		return "", err
	}
	e.mu.Lock()
	e.runDirs[dir] = true
	e.mu.Unlock()
	return dir, nil
}

func (e *env) removeRunDir(dir string) {
	_ = os.RemoveAll(dir) // best effort: a leftover only costs disk space
	e.mu.Lock()
	delete(e.runDirs, dir)
	e.mu.Unlock()
}

// daemon is one running damctl process.
type daemon struct {
	e      *env
	name   string
	cmd    *exec.Cmd
	url    string
	out    *listenWatcher
	stderr bytes.Buffer
	exited chan struct{}
	once   sync.Once
}

// startDaemon runs `damctl <args>` and waits until it prints its
// listening line, which the daemons print only after durable recovery
// finished and the listener is bound. The address comes from that line,
// so daemons listen on ephemeral loopback ports.
func (e *env) startDaemon(ctx context.Context, name string, args ...string) (*daemon, error) {
	d := &daemon{e: e, name: name, out: newListenWatcher(), exited: make(chan struct{})}
	d.cmd = exec.Command(e.damctl, args...)
	d.cmd.Stdout = d.out
	d.cmd.Stderr = &d.stderr
	// Own process group, so a terminal ^C reaches only loadbench, which
	// then stops its daemons; Pdeathsig stops them should loadbench die.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	e.mu.Lock()
	e.live[d] = true
	e.mu.Unlock()
	go func() {
		_ = d.cmd.Wait() // the exit status of a killed daemon carries no information
		close(d.exited)
	}()
	select {
	case url := <-d.out.found:
		d.url = url
		return d, nil
	case <-d.exited:
		d.kill()
		return nil, fmt.Errorf("%s exited before listening: %s", name, strings.TrimSpace(d.stderr.String()))
	case <-ctx.Done():
		d.kill()
		return nil, ctx.Err()
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("%s did not start listening within 60s", name)
	}
}

// kill stops the daemon with SIGKILL — no final snapshot, so the data
// directory keeps its WAL tail — and waits until it has exited.
func (d *daemon) kill() { d.signal(syscall.SIGKILL) }

// terminate stops the daemon with SIGTERM, letting a durable collector
// write its final snapshot, and waits until it has exited.
func (d *daemon) terminate() { d.signal(syscall.SIGTERM) }

func (d *daemon) signal(sig syscall.Signal) {
	d.once.Do(func() {
		_ = d.cmd.Process.Signal(sig) // fails only if the process already exited
		select {
		case <-d.exited:
		case <-time.After(20 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
		d.e.mu.Lock()
		delete(d.e.live, d)
		d.e.mu.Unlock()
	})
}

// cpuTicks reads the daemon's user plus system CPU time in clock ticks
// from /proc/<pid>/stat.
func (d *daemon) cpuTicks() (uint64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(data[bytes.LastIndexByte(data, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line for %s", d.name)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line for %s", d.name)
	}
	return ut + st, nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTick = 10 * time.Millisecond

// peakRSSKB reads the daemon's peak resident set (VmHWM) in KiB.
func (d *daemon) peakRSSKB() (uint64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", d.name)
}

// listenWatcher is a daemon's stdout: it reports the base URL from the
// "listening on <url>" line and discards the rest.
type listenWatcher struct {
	mu    sync.Mutex
	buf   []byte
	done  bool
	found chan string
}

func newListenWatcher() *listenWatcher { return &listenWatcher{found: make(chan string, 1)} }

func (w *listenWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(w.buf[:i])
		w.buf = w.buf[i+1:]
		if _, after, ok := strings.Cut(line, " listening on "); ok {
			url, _, _ := strings.Cut(after, " ")
			w.found <- url
			w.done = true
			w.buf = nil
			return len(p), nil
		}
	}
}

// refuseStrayDaemons fails when any `damctl serve` or `damctl
// supervise` is already running: on a two-core box it would take one
// of the cores the measurement needs.
func refuseStrayDaemons() error {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return nil // no procfs: nothing to inspect
	}
	for _, ent := range entries {
		pid, err := strconv.Atoi(ent.Name())
		if err != nil || pid == os.Getpid() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join("/proc", ent.Name(), "cmdline"))
		if err != nil || len(raw) == 0 {
			continue
		}
		argv := strings.Split(strings.TrimRight(string(raw), "\x00"), "\x00")
		if len(argv) > 1 && filepath.Base(argv[0]) == "damctl" && (argv[1] == "serve" || argv[1] == "supervise") {
			return fmt.Errorf("a stray `damctl %s` is running (pid %d); stop it before benchmarking", argv[1], pid)
		}
	}
	return nil
}

// copyTree copies a fixture data directory (regular files only, one
// level deep) into dst.
func copyTree(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
