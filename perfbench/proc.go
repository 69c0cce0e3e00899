package main

import (
	"bufio"
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
)

// server is one tssserve child process on a loopback port.
type server struct {
	cmd  *exec.Cmd
	url  string
	log  *os.File
	done chan struct{}
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

// spawn starts tssserve with args; its output goes to logPath.
func spawn(bin, logPath string, args ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start tssserve: %w", err)
	}
	s := &server{cmd: cmd, url: "http://" + addr, log: logf, done: make(chan struct{})}
	go func() { _ = cmd.Wait(); close(s.done) }()
	return s, nil
}

// waitHealthy polls /healthz until it answers 200.
func (s *server) waitHealthy() error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(s.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.done:
			return fmt.Errorf("tssserve %s exited during start-up (log %s)", strings.Join(s.cmd.Args[1:], " "), s.log.Name())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("tssserve did not become healthy within 60s (log %s)", s.log.Name())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (s *server) peakRSSMB() float64 {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "status"))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// stop sends SIGTERM (graceful drain), escalates to SIGKILL after 10s,
// and returns once the process has exited.
func (s *server) stop() {
	if s == nil {
		return
	}
	select {
	case <-s.done:
	default:
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.done:
		case <-time.After(10 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
		}
	}
	s.log.Close()
}

// fleet is every server process a run started; stopAll is deferred by
// main so no child outlives the benchmark.
// It is also called from the signal handler, hence the lock.
type fleet struct {
	mu      sync.Mutex
	servers []*server
}

// start spawns a server, registers it before waiting for it to come up
// (so a signal during start-up still stops it) and waits until healthy.
func (f *fleet) start(bin, logPath string, args ...string) (*server, error) {
	s, err := spawn(bin, logPath, args...)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.servers = append(f.servers, s)
	f.mu.Unlock()
	return s, s.waitHealthy()
}

func (f *fleet) stopAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.servers {
		s.stop()
	}
	f.servers = nil
}
