package server

import (
	"context"
	"net"
	"net/http"
	"time"
)

// Graceful serves h on ln until stop closes (or receives), then drains: the
// listener closes immediately — new connections are refused — while requests
// already in flight run to completion. That includes solves still waiting
// in admission for a worker slot: their handler goroutines block until the
// solve answers, and Shutdown waits for every active handler. Returns nil
// after a clean drain (the caller exits 0), the serve or drain error
// otherwise. timeout bounds the drain; 0 waits indefinitely.
func Graceful(ln net.Listener, h http.Handler, stop <-chan struct{}, timeout time.Duration) error {
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-stop:
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return hs.Shutdown(ctx)
}
