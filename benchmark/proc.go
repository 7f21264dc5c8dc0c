package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// Filesystem magic numbers statfs reports; fsync on the memory-backed
// ones is free, which would make every durability cost read as zero.
var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794c7630: "overlayfs",
	0x01021994: "tmpfs",
	0x858458f6: "ramfs",
	0x6969:     "nfs",
	0x2fc12fc1: "zfs",
}

// fsType names the filesystem holding dir.
func fsType(dir string) (string, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", fmt.Errorf("statfs %s: %w", dir, err)
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name, nil
	}
	return fmt.Sprintf("0x%x", st.Type), nil
}

func memoryBacked(fs string) bool { return fs == "tmpfs" || fs == "ramfs" }

// buildDaemon builds the real roadrunnerd binary the service workloads
// spawn and returns its path and the build time.
func buildDaemon(ctx context.Context, root, binDir string) (string, float64, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", 0, err
	}
	bin := filepath.Join(binDir, "roadrunnerd")
	t0 := now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/roadrunnerd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/roadrunnerd: %w: %s", err, strings.TrimSpace(string(out)))
	}
	return bin, since(t0), nil
}

// freeAddr picks a free loopback port by binding port 0. The port is
// released before the child binds it; a collision in that window makes
// the child exit, which the health wait reports with its log.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// child is one process under test, started in its own process group so
// the whole group can be killed whatever the child spawned.
type child struct {
	name    string
	cmd     *exec.Cmd
	logPath string
	exited  chan struct{} // closed once Wait returned
	waitErr error
}

func startChild(name, bin, logPath string, args ...string) (*child, error) {
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		_ = logFile.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, logPath: logPath, exited: make(chan struct{})}
	go func() {
		c.waitErr = cmd.Wait()
		_ = logFile.Close()
		close(c.exited)
	}()
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

func (c *child) alive() bool {
	select {
	case <-c.exited:
		return false
	default:
		return true
	}
}

// kill SIGKILLs the child's process group and waits for the child to be
// reaped. Children are disposable — their store is scratch — so there is
// no graceful drain to wait for.
func (c *child) kill() {
	if c == nil {
		return
	}
	_ = syscall.Kill(-c.pid(), syscall.SIGKILL)
	select {
	case <-c.exited:
	case <-after(10 * time.Second):
	}
}

// exitedCPU returns the user+system CPU the child used over its whole
// life, from the rusage Wait collected: microsecond resolution, where
// /proc/<pid>/stat only has clock ticks. Valid once kill has returned.
func (c *child) exitedCPU() float64 {
	select {
	case <-c.exited:
	default:
		return 0
	}
	ps := c.cmd.ProcessState
	if ps == nil {
		return 0
	}
	return ps.UserTime().Seconds() + ps.SystemTime().Seconds()
}

// logTail returns the last lines of the child's log for error messages.
func (c *child) logTail() string {
	data, err := os.ReadFile(c.logPath)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) > 12 {
		lines = lines[len(lines)-12:]
	}
	return strings.Join(lines, "\n")
}

// waitFor polls cond every few milliseconds until it holds, the context
// ends, any watched child exits, or the timeout passes — never forever.
func waitFor(ctx context.Context, what string, timeout time.Duration, watch []*child, cond func() bool) error {
	t0 := now()
	for {
		if cond() {
			return nil
		}
		for _, c := range watch {
			if !c.alive() {
				return fmt.Errorf("%s: %s exited early (%v); log tail:\n%s", what, c.name, c.waitErr, c.logTail())
			}
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		if since(t0) > timeout.Seconds() {
			tails := ""
			for _, c := range watch {
				tails += fmt.Sprintf("\n--- %s log tail ---\n%s", c.name, c.logTail())
			}
			return fmt.Errorf("%s: timed out after %s%s", what, timeout, tails)
		}
		sleep(4 * time.Millisecond)
	}
}
