package diag

// The server's HTTP core: a ServeMux whose routes each run behind their own
// resilience.Guard, and the listen, serve and graceful-shutdown lifecycle
// around it.
//
// A route that panics answers 500 and, past resilience.DefaultPanicLimit
// panics, is quarantined to 503 while its sibling routes keep serving.
// Buffered routes render their whole body before the first byte is written,
// so a panic mid-render never leaves a torn response.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"predator/internal/resilience"
)

// readHeaderTimeout bounds how long a connection may take to send its
// request headers.
const readHeaderTimeout = 5 * time.Second

// shutdownGrace bounds how long a context-cancelled server waits for
// in-flight requests before closing connections.
const shutdownGrace = 5 * time.Second

// statusError carries an HTTP status out of a handler.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

// httpStatus returns an error that answers the request with code and msg.
func httpStatus(code int, msg string) error { return &statusError{code: code, msg: msg} }

// writeError answers a request with err's message and the status it
// carries, found with errors.As; an error without one answers 500.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var se *statusError
	if errors.As(err, &se) {
		code = se.code
	}
	http.Error(w, err.Error(), code)
}

// renderFunc writes one response body into buf and returns its content
// type.
type renderFunc func(r *http.Request, buf *bytes.Buffer) (contentType string, err error)

// writeJSON renders v into buf, indented, and returns the JSON content type.
func writeJSON(buf *bytes.Buffer, v any) (string, error) {
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return "", err
	}
	return "application/json; charset=utf-8", nil
}

// guardedMux is a guarded ServeMux plus its listener's lifecycle. Register
// every route before Start.
type guardedMux struct {
	mux    *http.ServeMux
	guards map[string]*resilience.Guard // by route name

	srv    *http.Server
	done   chan struct{} // closed when Serve returns
	closed atomic.Bool
}

func newGuardedMux() *guardedMux {
	return &guardedMux{mux: http.NewServeMux(), guards: map[string]*resilience.Guard{}}
}

// handle registers a buffered render at pattern, guarded under the
// pattern's name. The body is rendered into a buffer inside the guard; an
// error answers the status it carries (see writeError).
func (s *guardedMux) handle(pattern string, render renderFunc) {
	s.handleRaw(pattern, pattern, func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		ctype, err := render(r, &buf)
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", ctype)
		_, _ = w.Write(buf.Bytes())
	})
}

// handleRaw registers an unbuffered handler (a streaming one, such as
// pprof's) at pattern, guarded under name. A panic after the handler wrote
// its headers cannot be unsent; the guard still counts it and eventually
// quarantines the route.
func (s *guardedMux) handleRaw(pattern, name string, h http.HandlerFunc) {
	g := resilience.NewGuard("diag:"+name, resilience.DefaultPanicLimit, nil)
	s.guards[name] = g
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if g.Quarantined() {
			http.Error(w, name+": quarantined after repeated panics", http.StatusServiceUnavailable)
			return
		}
		if !g.Run(func() { h(w, r) }) {
			http.Error(w, name+": handler panicked", http.StatusInternalServerError)
		}
	})
}

// Quarantined lists the quarantined route names, sorted (nil when none).
func (s *guardedMux) Quarantined() []string {
	var names []string
	for name, g := range s.guards {
		if g.Quarantined() {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// Handler returns the routing handler (for tests and embedding).
func (s *guardedMux) Handler() http.Handler { return s.mux }

// Start listens on addr (host:port; port 0 picks a free port) and serves
// until ctx is cancelled or Shutdown is called, then drains gracefully. It
// returns the bound address immediately; serving happens in background
// goroutines.
func (s *guardedMux) Start(ctx context.Context, addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("diag: listen %s: %w", addr, err)
	}
	s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: readHeaderTimeout}
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln)
	}()
	if ctx != nil {
		go func() {
			select {
			case <-ctx.Done():
			case <-s.done:
				return
			}
			sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
			defer cancel()
			_ = s.Shutdown(sctx)
		}()
	}
	return ln.Addr().String(), nil
}

// Shutdown gracefully stops a started server, waiting for in-flight
// requests up to ctx's deadline. Only the first call does the work; later
// calls, and calls before Start, return nil.
func (s *guardedMux) Shutdown(ctx context.Context) error {
	if s.srv == nil || !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := s.srv.Shutdown(ctx)
	<-s.done
	return err
}
