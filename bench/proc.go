package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// outDir holds everything a run leaves behind: the fragserve binary,
// server logs, results and traces. It is git-ignored.
const outDir = "out"

// pinEnv names the CPU a run has pinned itself to.
const pinEnv = "BENCH_PINNED_CPU"

// pinToOneCPU restricts the run to one CPU: the generator, the stack under
// test and the fragserve child all take turns on it. The reference host
// is a small VM on a shared machine, where waking a thread on another vCPU
// (a futex wake, a loopback packet, a collector worker) costs an
// inter-processor interrupt and a halted vCPU, and what those cost swings
// with the host's other tenants: the same served_small_meta run gave 10.1k
// and 14.8k ops/s minutes apart on two vCPUs, 14.9k and 15.0k on one. A
// thread's affinity is inherited by the threads and children it creates
// but not by the threads the runtime has started already, so the process
// sets the mask on its main thread and executes itself again; the second
// time round pinEnv says the work is done.
func pinToOneCPU() error {
	if os.Getenv(pinEnv) != "" {
		return nil
	}
	runtime.LockOSThread()
	var mask [16]uint64 // room for 1024 CPUs
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu := -1
	for i := int(n)*8 - 1; i >= 0 && cpu < 0; i-- {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpu = i // the last one allowed: CPU 0 also serves the interrupts
		}
	}
	if cpu < 0 {
		return errors.New("sched_getaffinity: empty CPU mask")
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_setaffinity to CPU %d: %w", cpu, errno)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(self, os.Args, append(os.Environ(), fmt.Sprintf("%s=%d", pinEnv, cpu)))
}

// selfCPU is this process's user+system CPU time in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads VmHWM, the peak resident set, of a live process.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func selfPeakRSSMB() float64 {
	mb, _ := peakRSSMB("self")
	return mb
}

// procCPU reads a live process's user+system CPU seconds from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s).
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat")
	}
	return (ut + st) / 100, nil
}

// buildServer compiles fragserve into out/. go build is a no-op when
// the binary is current, so every run measures the checkout's sources.
func buildServer() (string, error) {
	bin := outDir + "/fragserve"
	cmd := exec.Command("go", "build", "-o", bin, servePackage)
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build %s: %v\n%s", servePackage, err, out)
	}
	return bin, nil
}

// serverProc is one fragserve child. A server is never reused between
// rounds: a second prepopulate would meet ErrAlreadyExists on every key.
type serverProc struct {
	cmd    *exec.Cmd
	url    string
	stderr *os.File
	exited chan error
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer launches fragserve with the stack's flags on a free port
// and waits until /v1/stats answers. Its stderr is appended to logPath.
func startServer(bin string, spec stackSpec, logPath string) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	log, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, spec.serveFlags(addr)...)
	cmd.Stderr = log
	// The child must not outlive an aborted bench.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, err
	}
	p := &serverProc{cmd: cmd, url: "http://" + addr, stderr: log, exited: make(chan error, 1)}
	go func() { p.exited <- cmd.Wait() }()

	deadline := time.Now().Add(15 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		req, _ := http.NewRequestWithContext(ctx, "GET", p.url+"/v1/stats", nil)
		resp, err := http.DefaultClient.Do(req)
		cancel()
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				http.DefaultClient.CloseIdleConnections()
				return p, nil
			}
		}
		select {
		case werr := <-p.exited:
			log.Close()
			return nil, fmt.Errorf("fragserve exited before it was ready: %v (see %s)", werr, logPath)
		default:
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("fragserve not ready on %s after 15 s (see %s)", addr, logPath)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// usage reads the child's CPU seconds and peak RSS while it still runs.
func (p *serverProc) usage() (cpuS, rssMB float64, err error) {
	cpuS, err = procCPU(p.cmd.Process.Pid)
	if err != nil {
		return 0, 0, err
	}
	rssMB, err = peakRSSMB(strconv.Itoa(p.cmd.Process.Pid))
	return cpuS, rssMB, err
}

// stop asks the server to shut down and requires a clean exit.
func (p *serverProc) stop() error {
	defer p.stderr.Close()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-p.exited:
		if err != nil {
			return fmt.Errorf("fragserve did not exit 0: %w", err)
		}
		return nil
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		<-p.exited
		return errors.New("fragserve ignored SIGTERM for 20 s; killed")
	}
}

// kill ends the child at once and waits for it, on any abort path.
func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	<-p.exited
	p.stderr.Close()
}
