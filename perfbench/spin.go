package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// Every workload runs beside a spinner. The serve workloads pass each
// request between several threads of two processes, so the processors
// go idle and wake up hundreds of times a second, and even the one
// caller of compile-large leaves the other processor idle. On a virtual
// machine each wake-up of an idle processor waits for the hypervisor to
// run it again; on a busy host that wait, counted as steal, came to a
// quarter of the CPU time and stalled half the requests of a run. The
// spinner keeps every processor busy at the lowest priority, as the
// Linux idle=poll option would: the processors never go idle, and any
// thread of the workload that becomes ready preempts the spinner at
// once (see README.md, Steadiness).

// schedIdle is Linux's SCHED_IDLE policy: a thread under it runs only
// when no other thread is ready and yields to any that wakes.
const schedIdle = 5

// spin is the spinner process: one thread per processor, each set to
// SCHED_IDLE before it spins. It prints "ready" once every thread is
// set and spins until killed; if a thread cannot be set it exits
// non-zero without spinning.
func spin() int {
	n := runtime.NumCPU()
	set := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			runtime.LockOSThread()
			prio := int32(0)
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&prio))); e != 0 {
				set <- e
				return
			}
			set <- nil
			for {
			}
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-set; err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: spinner: setting SCHED_IDLE:", err)
			return 1
		}
	}
	fmt.Println("ready")
	select {}
}

// startSpinner starts this program in spin mode and waits until it is
// ready. The returned function kills it and waits for it to end. If
// the spinner cannot start, it returns the reason and nothing runs.
func startSpinner() (func(), error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--spin")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	stop := func() {
		_ = cmd.Process.Kill() // the wait below reaps it either way
		_ = cmd.Wait()
	}
	ready := make(chan bool, 1)
	go func() {
		line, _ := bufio.NewReader(out).ReadString('\n')
		ready <- line == "ready\n"
	}()
	select {
	case ok := <-ready:
		if ok {
			return stop, nil
		}
	case <-time.After(10 * time.Second):
	}
	stop()
	return nil, fmt.Errorf("spinner did not start")
}
