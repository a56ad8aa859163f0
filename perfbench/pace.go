package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps a goroutine until a due time with microsecond-scale
// precision. Go timers wake goroutines through the netpoller, whose
// timeout has millisecond granularity when the process is otherwise idle,
// which would make an open-loop generator send up to a millisecond late;
// a blocking nanosleep would instead hold the goroutine's P and starve
// the daemon on a small machine. A timerfd read through the netpoller has
// neither problem: the goroutine parks, and the kernel's high-resolution
// timer makes the fd readable on time.
type pacer struct {
	fd int
	f  *os.File
}

const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

type itimerspec struct {
	interval, value syscall.Timespec
}

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// sleep parks the caller for d (d > 0).
func (p *pacer) sleep(d time.Duration) error {
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(p.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var buf [8]byte
	_, err := p.f.Read(buf[:])
	return err
}

func (p *pacer) close() { p.f.Close() }
