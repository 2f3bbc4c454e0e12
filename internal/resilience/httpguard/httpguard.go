// Package httpguard is the HTTP core the live diagnostics server
// (internal/obs/diag) and predfleet (internal/fleet) share: a ServeMux whose
// routes each run behind their own resilience.Guard, and the listen, serve
// and graceful-shutdown lifecycle around it.
//
// A route that panics answers 500 and, past resilience.DefaultPanicLimit
// panics, is quarantined to 503 while its sibling routes keep serving.
// Buffered routes render their whole body before the first byte is written,
// so a panic mid-render never leaves a torn response.
package httpguard

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

// ShutdownGrace bounds how long a context-cancelled server waits for
// in-flight requests before closing connections.
const ShutdownGrace = 5 * time.Second

// StatusError carries an HTTP status out of a handler.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string { return e.Msg }

// Status returns an error that answers the request with code and msg.
func Status(code int, msg string) error { return &StatusError{Code: code, Msg: msg} }

// WriteError answers a request with err's message and the status it
// carries, found with errors.As; an error without one answers 500.
func WriteError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var se *StatusError
	if errors.As(err, &se) {
		code = se.Code
	}
	http.Error(w, err.Error(), code)
}

// Render writes one response body into buf and returns its content type.
type Render func(r *http.Request, buf *bytes.Buffer) (contentType string, err error)

// WriteJSON renders v into buf, indented, and returns the JSON content type.
func WriteJSON(buf *bytes.Buffer, v any) (string, error) {
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return "", err
	}
	return "application/json; charset=utf-8", nil
}

// Server is a guarded ServeMux plus its listener's lifecycle. Register every
// route before Start.
type Server struct {
	system string // "diag" | "fleet": prefixes guard names and listen errors
	mux    *http.ServeMux
	guards map[string]*resilience.Guard // by route name

	srv    *http.Server
	done   chan struct{} // closed when Serve returns
	closed atomic.Bool
}

// New builds an empty server for the named system.
func New(system string) *Server {
	return &Server{system: system, mux: http.NewServeMux(), guards: map[string]*resilience.Guard{}}
}

// Handle registers a buffered render at pattern, guarded under the
// pattern's name. The body is rendered into a buffer inside the guard; an
// error answers the status it carries (see WriteError).
func (s *Server) Handle(pattern string, render Render) {
	s.HandleRaw(pattern, pattern, func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		ctype, err := render(r, &buf)
		if err != nil {
			WriteError(w, err)
			return
		}
		w.Header().Set("Content-Type", ctype)
		_, _ = w.Write(buf.Bytes())
	})
}

// HandleRaw registers an unbuffered handler (a streaming one, such as
// pprof's) at pattern, guarded under name. A panic after the handler wrote
// its headers cannot be unsent; the guard still counts it and eventually
// quarantines the route.
func (s *Server) HandleRaw(pattern, name string, h http.HandlerFunc) {
	g := resilience.NewGuard(s.system+":"+name, resilience.DefaultPanicLimit, nil)
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
func (s *Server) Quarantined() []string {
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
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (host:port; port 0 picks a free port) and serves
// until ctx is cancelled or Shutdown is called, then drains gracefully. It
// returns the bound address immediately; serving happens in background
// goroutines.
func (s *Server) Start(ctx context.Context, addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("%s: listen %s: %w", s.system, addr, err)
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
			sctx, cancel := context.WithTimeout(context.Background(), ShutdownGrace)
			defer cancel()
			_ = s.Shutdown(sctx)
		}()
	}
	return ln.Addr().String(), nil
}

// Shutdown gracefully stops a started server, waiting for in-flight
// requests up to ctx's deadline. Only the first call does the work; later
// calls, and calls before Start, return nil.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.srv == nil || !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := s.srv.Shutdown(ctx)
	<-s.done
	return err
}
