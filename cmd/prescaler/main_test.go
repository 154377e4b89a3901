package main

import (
	"context"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/prog"
	"repro/internal/service"
	"repro/internal/wltest"
)

// startFleet serves a 2-node in-process fleet over the synthetic test
// workload; slow delays each node's events route, as a loaded node
// might.
func startFleet(t *testing.T, slow time.Duration) []string {
	t.Helper()
	var lns []net.Listener
	var addrs []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	urls := make([]string, len(addrs))
	for i, ln := range lns {
		srv, err := service.New(service.Config{
			Workload: func(name string) *prog.Workload {
				if name == "veccombine" {
					return wltest.VecCombine(1 << 12)
				}
				return nil
			},
			Self:          addrs[i],
			Peers:         []string{addrs[1-i]},
			ProbeInterval: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/events") {
				time.Sleep(slow)
			}
			h.ServeHTTP(w, r)
		})}
		go hs.Serve(ln)
		t.Cleanup(func() { hs.Close(); srv.Close() })
		urls[i] = "http://" + addrs[i]
	}
	return urls
}

// The -daemon -progress flow must end on either node of a fleet, also
// when the owner already holds the decision and the node that proxies
// the request is slow to open the event stream: the request goes out
// only after the subscription, so the relayed answer ends it.
func TestRunDaemonProgressEndsOnEitherNode(t *testing.T) {
	urls := startFleet(t, 300*time.Millisecond)
	req := &api.ScaleRequest{Benchmark: "veccombine", TOQ: 0.94}
	for _, url := range append(urls, urls...) {
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() { errc <- runDaemon(ctx, url, req, true, "") }()
		select {
		case err := <-errc:
			if err != nil {
				t.Errorf("%s: %v", url, err)
			}
		case <-time.After(20 * time.Second):
			t.Errorf("%s: -progress run did not end", url)
		}
		cancel()
	}
}
