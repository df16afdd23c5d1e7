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
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is a prefgcd child process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan error // receives the process's exit once
}

// startDaemon launches bin on a free loopback port with the given
// flags and waits until /healthz answers.
func startDaemon(client *http.Client, bin string, flags ...string) (*daemon, error) {
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("daemon binary: %w (build it with run.py)", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	cmd.Stdout = io.Discard // keeps the result line last on our stdout
	cmd.Stderr = os.Stderr
	// Should the benchmark die without stopping it, the kernel kills
	// the daemon too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	deadline := time.Now().Add(20 * time.Second)
	for {
		select {
		case err := <-d.done:
			return nil, fmt.Errorf("prefgcd exited during start-up: %v", err)
		default:
		}
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("prefgcd did not become healthy in 20s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop asks the daemon to drain and waits for it to exit, killing it
// if it has not within 20 seconds.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an exited process is fine
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill() // the wait below reaps it either way
		<-d.done
	}
}

// peakRSSMB returns the daemon's peak resident set size.
func (d *daemon) peakRSSMB() float64 { return peakRSSMB(d.cmd.Process.Pid) }

// scrape reads /metrics into a map from series (name plus labels) to
// value.
func (d *daemon) scrape(ctx context.Context, client *http.Client) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			continue
		}
		out[line[:cut]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	return out, nil
}

// awaitUpgrades waits until the daemon's background tier upgrades are
// done: its upgrade queue empty and no upgrade finished for 50 ms. A
// daemon without tiering is done at once.
func (d *daemon) awaitUpgrades(client *http.Client) error {
	settled := func(m map[string]float64) float64 {
		return m["prefgcd_tier_upgrades_total"] + m["prefgcd_tier_upgrade_failures_total"]
	}
	deadline := time.Now().Add(30 * time.Second)
	last := -1.0
	for {
		m, err := d.scrape(context.Background(), client)
		if err != nil {
			return err
		}
		if m["prefgcd_tier_upgrade_queue_depth"] == 0 && settled(m) == last {
			return nil
		}
		last = settled(m)
		if time.Now().After(deadline) {
			return errors.New("prefgcd upgrades still running after 30s")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// diff returns after − before per series.
func diff(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// newClient returns an HTTP client holding at most conns connections
// to the daemon.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns + 1, // one spare for /metrics scrapes
		MaxIdleConnsPerHost: conns + 1,
		DisableCompression:  true,
	}}
}
