package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// daemon is one ehnad process started by the benchmark.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	logf   *os.File
	exited chan struct{}
}

// bootTimeout bounds one boot, graph build included.
const bootTimeout = 150 * time.Second

// startDaemon execs ehnad with args on a free loopback port and waits
// for /readyz to answer 200. The returned duration runs from exec to
// that answer: the boot a user waits for.
func startDaemon(bin string, args []string, logPath string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(filepath.Join(bin, "ehnad"), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark itself is killed, the kernel kills the daemon too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, base: "http://" + addr, logf: logf, exited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start ehnad: %w", err)
	}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	client := &http.Client{Timeout: time.Second}
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/readyz", nil)
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		cancel()
		if err == nil && resp.StatusCode == http.StatusOK {
			return d, time.Since(start), nil
		}
		select {
		case <-d.exited:
			logf.Close()
			return nil, 0, fmt.Errorf("ehnad exited during boot (%v); log in %s", cmd.ProcessState, logPath)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(start) > bootTimeout {
			d.stop()
			return nil, 0, fmt.Errorf("ehnad not ready after %v; log in %s", bootTimeout, logPath)
		}
	}
}

// stop kills the daemon, waits until it has exited and returns the CPU
// time, user plus system, it used. The benchmark needs no clean
// shutdown: every artifact it checks was read while the daemon ran.
func (d *daemon) stop() time.Duration {
	d.cmd.Process.Kill()
	<-d.exited
	d.logf.Close()
	return d.cmd.ProcessState.UserTime() + d.cmd.ProcessState.SystemTime()
}

// peakRSSMB is the daemon's VmHWM in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	return statusMB(strconv.Itoa(d.cmd.Process.Pid), "VmHWM")
}

// cpuSeconds is the CPU time the daemon has used so far.
func (d *daemon) cpuSeconds() (float64, error) {
	return processCPU(strconv.Itoa(d.cmd.Process.Pid))
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}
