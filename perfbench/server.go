package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// server is one running terids-serve process.
type server struct {
	cmd     *exec.Cmd
	started time.Time
	addr    chan string   // receives the listen address once, from its log
	exited  chan struct{} // closed once the process has been waited for
	logTail []string      // last log lines, for error reports (read after exited)
}

// startServer execs bin with args plus a loopback listener on a free port.
func startServer(bin string, args []string) (*server, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// The server dies with the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, addr: make(chan string, 1), exited: make(chan struct{})}
	s.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start terids-serve: %w", err)
	}
	go func() {
		defer close(s.exited)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "listening on "); ok && !sent {
				s.addr <- strings.Fields(rest)[0]
				sent = true
			}
			s.logTail = append(s.logTail, line)
			if len(s.logTail) > 20 {
				s.logTail = s.logTail[1:]
			}
		}
		_ = cmd.Wait() // the exit status is read from cmd.ProcessState
	}()
	return s, nil
}

// waitReady returns the base URL once /readyz answers 200, and the time
// from exec to that answer.
func (s *server) waitReady(timeout time.Duration) (string, time.Duration, error) {
	deadline := time.After(timeout)
	var addr string
	select {
	case addr = <-s.addr:
	case <-s.exited:
		return "", 0, fmt.Errorf("terids-serve exited during start-up:\n%s", strings.Join(s.logTail, "\n"))
	case <-deadline:
		return "", 0, fmt.Errorf("terids-serve did not listen within %s", timeout)
	}
	base := "http://" + addr
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	for {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return base, time.Since(s.started), nil
			}
		}
		select {
		case <-s.exited:
			return "", 0, fmt.Errorf("terids-serve exited during start-up:\n%s", strings.Join(s.logTail, "\n"))
		case <-deadline:
			return "", 0, fmt.Errorf("terids-serve not ready within %s", timeout)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// kill sends SIGKILL and waits for the process to be reaped.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // fails only if the process already exited
	<-s.exited
}

// cpu is the process's user+system CPU time so far.
func (s *server) cpu() (time.Duration, error) { return procCPU(s.cmd.Process.Pid) }

// maxRSSMB is the peak resident set size of an exited server, in MiB.
func (s *server) maxRSSMB() float64 {
	ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}
