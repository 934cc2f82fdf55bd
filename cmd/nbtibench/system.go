package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"nbticache/internal/cluster"
	"nbticache/internal/engine"
	"nbticache/internal/httpapi"
)

// endpoint is one loopback HTTP listener whose handler can be swapped:
// the warm workload closes and reopens the engine and its route table
// behind an address the client keeps using.
type endpoint struct {
	url     string
	srv     *http.Server
	handler atomic.Pointer[http.Handler]
	done    chan struct{}
}

func listen(h http.Handler) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	ep := &endpoint{url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	ep.swap(h)
	ep.srv = &http.Server{Handler: ep, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(ep.done)
		_ = ep.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return ep, nil
}

func (ep *endpoint) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*ep.handler.Load()).ServeHTTP(w, r)
}

func (ep *endpoint) swap(h http.Handler) { ep.handler.Store(&h) }

// close stops the listener, drops open connections and waits for the
// serve goroutine to return.
func (ep *endpoint) close() {
	_ = ep.srv.Close()
	<-ep.done
}

// node is one simulation node: an engine behind the node route table.
type node struct {
	opts engine.Options
	eng  *engine.Engine
	ep   *endpoint
}

func startNode(opts engine.Options) (*node, error) {
	eng, err := engine.New(opts)
	if err != nil {
		return nil, err
	}
	ep, err := listen(httpapi.NewServer(eng, httpapi.Config{}).Handler())
	if err != nil {
		eng.Close()
		return nil, err
	}
	return &node{opts: opts, eng: eng, ep: ep}, nil
}

// reopen closes the engine and its server and opens both again on the
// same data directory, as a restarted nbtiserved would.
func (n *node) reopen() error {
	n.eng.Close()
	eng, err := engine.New(n.opts)
	if err != nil {
		return err
	}
	n.eng = eng
	n.ep.swap(httpapi.NewServer(eng, httpapi.Config{}).Handler())
	return nil
}

func (n *node) close() {
	n.ep.close()
	n.eng.Close()
}

// system is everything one workload hosts: its nodes, for cluster a
// coordinator over them, and the front endpoint the client talks to.
type system struct {
	nodes []*node
	coord *cluster.Coordinator
	front *endpoint // nil when the client talks to nodes[0] directly
	dir   string
}

// url is the base URL the client drives.
func (s *system) url() string {
	if s.front != nil {
		return s.front.url
	}
	return s.nodes[0].ep.url
}

// engines lists the node engines, for resets and Stats.
func (s *system) engines() []*engine.Engine {
	out := make([]*engine.Engine, len(s.nodes))
	for i, n := range s.nodes {
		out[i] = n.eng
	}
	return out
}

func (s *system) close() error {
	if s.front != nil {
		s.front.close()
	}
	if s.coord != nil {
		s.coord.Close()
	}
	for _, n := range s.nodes {
		n.close()
	}
	return os.RemoveAll(s.dir)
}

// startCluster stands up shards nodes, each with its own data
// directory under dir, and a coordinator over them behind the front
// endpoint.
func startCluster(dir string, shards int, opts engine.Options) (*system, error) {
	sys := &system{dir: dir}
	peers := make([]string, shards)
	for i := range peers {
		o := opts
		o.DataDir = filepath.Join(dir, fmt.Sprintf("shard%d", i))
		n, err := startNode(o)
		if err != nil {
			return nil, errors.Join(err, sys.close())
		}
		sys.nodes = append(sys.nodes, n)
		peers[i] = n.ep.url
	}
	coord, err := cluster.New(cluster.Options{Peers: peers})
	if err != nil {
		return nil, errors.Join(err, sys.close())
	}
	sys.coord = coord
	front, err := listen(cluster.NewServer(coord, cluster.ServerConfig{}).Handler())
	if err != nil {
		return nil, errors.Join(err, sys.close())
	}
	sys.front = front
	return sys, nil
}
