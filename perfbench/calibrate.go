package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"time"
)

// calibrationRef is the reference speed: a wall of the kernel, fork to
// exit, as atReferenceSpeed reads it; the 2-vCPU VM the benchmark was built
// on read 5.2–8.1 ms.
const calibrationRef = 6 * time.Millisecond

// storeCalibrationRef is the reference speed of the kernel with
// storeKernel; the same VM read 7.8–9.6 ms.
const storeCalibrationRef = 12 * time.Millisecond

// calibrationKernel is a fixed piece of work that no change to the program
// can move: LU factorisations with partial pivoting of fixed dense matrices,
// each on a fresh allocation, in plain Go with no bgperf code. Three are
// 96 × 96 (74 KB, like a small solve) and one is 192 × 192 (295 KB, like
// the mid-sized solves whose working set leaves the core's own cache). It
// returns the product of the last pivots, so the work cannot be optimised
// away.
func calibrationKernel() float64 {
	prod := 1.0
	for r, n := range []int{96, 96, 96, 192} {
		a := make([]float64, n*n)
		for i := range a {
			a[i] = float64((i*7919+r)%97)/97 - 0.5
		}
		for k := 0; k < n; k++ {
			p := k
			for i := k + 1; i < n; i++ {
				if math.Abs(a[i*n+k]) > math.Abs(a[p*n+k]) {
					p = i
				}
			}
			for j := 0; j < n; j++ {
				a[k*n+j], a[p*n+j] = a[p*n+j], a[k*n+j]
			}
			for i := k + 1; i < n; i++ {
				f := a[i*n+k] / a[k*n+k]
				for j := k; j < n; j++ {
					a[i*n+j] -= f * a[k*n+j]
				}
			}
		}
		prod *= math.Abs(a[(n-1)*n+n-1])
	}
	return prod
}

// storeKernel adds to the kernel what a bgperfd node does around a solve,
// again with no bgperf code: it writes 8 small files into dir the way the
// disk store writes an entry (temp file, write, fsync, rename over the
// final name), and makes 32 small round trips over loopback TCP. Under
// load, fsyncs on a shared disk and loopback wake-ups slow down far more
// than arithmetic, so the daemon-mix workload is calibrated with both.
func storeKernel(dir string) error {
	payload := make([]byte, 1024)
	for i := 0; i < 8; i++ {
		f, err := os.CreateTemp(dir, "entry.tmp*")
		if err != nil {
			return err
		}
		_, err = f.Write(payload)
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(f.Name(), filepath.Join(dir, fmt.Sprintf("entry-%d", i)))
		}
		if err != nil {
			os.Remove(f.Name())
			return err
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer l.Close()
	go func() {
		if c, err := l.Accept(); err == nil {
			io.Copy(c, c)
			c.Close()
		}
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return err
	}
	defer c.Close()
	buf := make([]byte, 64)
	for i := 0; i < 32; i++ {
		if _, err := c.Write(buf); err != nil {
			return err
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			return err
		}
	}
	return nil
}

// calibrate runs the kernel in a new process of this binary, as the
// program's operations run in new processes or on its servers, and returns
// the wall from fork to exit. With e.calibDir set, the process also runs
// storeKernel in that directory.
func (e *env) calibrate() (time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "-calibrate", "-calibrate-dir", e.calibDir)
	var out bytes.Buffer
	cmd.Stdout = &out
	t0 := time.Now()
	err = cmd.Run()
	wall := time.Since(t0)
	if err != nil || out.Len() == 0 {
		return 0, fmt.Errorf("calibration kernel: %v", err)
	}
	return wall, nil
}

// sampleCalibration runs the kernel once and keeps its wall.
func (e *env) sampleCalibration() error {
	d, err := e.calibrate()
	if err != nil {
		return err
	}
	e.calib = append(e.calib, d.Seconds())
	return nil
}

// atReferenceSpeed rescales the time metrics of an untraced run to the
// reference speed. The host's speed drifts by up to 2x over minutes, longer
// than a run, as other tenants come and go, so the kernel runs among the
// program's operations throughout the run. Each operation's fastest wall
// over R rounds estimates the 1/(R+1) quantile of its walls, so the kernel
// is read over the same share: the mean of its fastest 1/(R+1) walls, which
// says how fast the host was at the best moments a run of R rounds meets
// and, being a mean of several walls, moves less than any one of them.
// Every time metric is multiplied by the kernel's reference wall over that
// mean, so a slower host moves both and cancels out, while a change to the
// program moves only its own walls. The times as measured are printed as
// notes.
func (e *env) atReferenceSpeed() error {
	if len(e.calib) == 0 || e.rounds < 1 {
		return errors.New("no calibration samples")
	}
	c := slices.Clone(e.calib)
	slices.Sort(c)
	k := max(1, len(c)/(e.rounds+1))
	at := 0.0
	for _, w := range c[:k] {
		at += w / float64(k)
	}
	ref := calibrationRef
	if e.calibDir != "" {
		ref = storeCalibrationRef
	}
	f := ref.Seconds() / at
	note("calibration kernel: %.4g ms, the mean of the fastest %d of %d walls (fastest %.4g ms, median %.4g ms); times scaled by %.4f to a %v kernel",
		1000*at, k, len(c), 1000*c[0], 1000*median(c), f, ref)
	for name, m := range e.metrics {
		if m.Unit == "s" || m.Unit == "ms" {
			note("%s as measured: %.6g %s", name, m.Value, m.Unit)
			m.Value *= f
			e.metrics[name] = m
		}
	}
	return nil
}
