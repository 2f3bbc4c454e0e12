package diag

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"predator/internal/resilience"
)

// newGuardTestMux registers one route per behaviour the diagnostics
// endpoints rely on.
func newGuardTestMux() *guardedMux {
	s := newGuardedMux()
	s.handle("/ok", func(_ *http.Request, buf *bytes.Buffer) (string, error) {
		return writeJSON(buf, map[string]string{"status": "ok"})
	})
	s.handle("/panics", func(*http.Request, *bytes.Buffer) (string, error) { panic("render exploded") })
	s.handleRaw("/raw/", "/raw", func(http.ResponseWriter, *http.Request) { panic("stream exploded") })
	s.handle("/bare", func(*http.Request, *bytes.Buffer) (string, error) {
		return "", httpStatus(http.StatusBadRequest, "invalid n")
	})
	s.handle("/wrapped", func(*http.Request, *bytes.Buffer) (string, error) {
		return "", fmt.Errorf("lookup: %w", httpStatus(http.StatusNotFound, "no such run"))
	})
	s.handle("/plain", func(*http.Request, *bytes.Buffer) (string, error) {
		return "", errors.New("store fault")
	})
	return s
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestGuardedRoutes(t *testing.T) {
	s := newGuardTestMux()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A panicking route answers 500 until its guard's budget is spent, then
	// 503 from then on.
	var panics []int
	for i := 0; i < resilience.DefaultPanicLimit; i++ {
		panics = append(panics, http.StatusInternalServerError)
	}
	panics = append(panics, http.StatusServiceUnavailable, http.StatusServiceUnavailable)
	for _, tc := range []struct {
		name, path string
		want       []int // status of each request in turn
	}{
		{"buffered route panics, then is quarantined", "/panics", panics},
		{"unbuffered route panics, then is quarantined", "/raw/x", panics},
		{"sibling route keeps serving", "/ok", []int{http.StatusOK}},
		{"bare status error", "/bare", []int{http.StatusBadRequest}},
		{"wrapped status error", "/wrapped", []int{http.StatusNotFound}},
		{"error without a status", "/plain", []int{http.StatusInternalServerError}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i, want := range tc.want {
				if code, body := get(t, ts.URL+tc.path); code != want {
					t.Fatalf("request %d: status %d (%q), want %d", i+1, code, body, want)
				}
			}
		})
	}

	// The guards live in a map, whose order varies from call to call.
	for i := 0; i < 20; i++ {
		if got, want := s.Quarantined(), []string{"/panics", "/raw"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("Quarantined() = %v, want %v", got, want)
		}
	}
	if _, body := get(t, ts.URL+"/wrapped"); body != "lookup: no such run\n" {
		t.Errorf("wrapped error body = %q, want the whole error", body)
	}
}

func TestStartShutdownOnContextCancel(t *testing.T) {
	s := newGuardTestMux()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown before Start = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	addr, err := s.Start(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := get(t, "http://"+addr+"/ok"); code != http.StatusOK {
		t.Fatalf("/ok status = %d", code)
	}

	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err != nil {
			break // listener closed: graceful shutdown completed
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("server still accepting connections after context cancel")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown = %v, want nil", err)
	}
}
