package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the CPU (user + system) this process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns this process's peak resident set size in MB (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// child is a copy of this binary started in another role. It reads
// one-line commands on stdin and answers each with one JSON line on stdout.
type child struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

func startChild(args ...string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %v: %w", args, err)
	}
	return &child{cmd: cmd, in: in, out: bufio.NewReaderSize(out, 1<<16)}, nil
}

// recv decodes the child's next JSON line into v.
func (c *child) recv(v any) error {
	line, err := c.out.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("child %v: %w", c.cmd.Args[1:], err)
	}
	if err := json.Unmarshal(bytes.TrimSpace(line), v); err != nil {
		return fmt.Errorf("child %v: %w", c.cmd.Args[1:], err)
	}
	return nil
}

// call sends one command and decodes the answer into v.
func (c *child) call(command string, v any) error {
	if _, err := io.WriteString(c.in, command+"\n"); err != nil {
		return fmt.Errorf("child %v: %w", c.cmd.Args[1:], err)
	}
	return c.recv(v)
}

// wait closes the child's stdin, which tells it to exit, and waits for it.
func (c *child) wait() error {
	_ = c.in.Close()
	return c.cmd.Wait()
}

// kill stops a child that may be wedged; used on error paths only.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	_ = c.cmd.Wait()
}

// reply writes v as one JSON line on stdout, the answer to the parent.
func reply(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b, _ = json.Marshal(map[string]string{"error": err.Error()})
	}
	os.Stdout.Write(append(b, '\n'))
}
