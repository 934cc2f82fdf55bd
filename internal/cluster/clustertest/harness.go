// Package clustertest is the in-process cluster fault-injection
// harness: it stands up N real nbtiserved nodes — each a live engine
// behind an httptest.Server serving the full internal/httpapi route
// table, with its own temporary data directory — plus a
// cluster.Coordinator over them, entirely inside one test process.
// Fault injection covers the scenarios elastic membership is proven
// by: Kill (crash a node), Restart (bring it back on the same address
// with the same data dir, so its disk CAS survives), Partition (the
// node answers 503 to everything — reachable but unhealthy),
// SeverConnections (break its open event streams), ForgetStreams (404
// its next event-stream opens, as retention eviction of a finished
// sub-sweep does), StartNode (a brand-new node for runtime join), and
// coordinator restart via CoordinatorAt over a shared state directory.
// Every node's engine stays reachable in-process so tests can assert on
// shard-local state (stored traces, counters) that the HTTP surface
// would hide.
package clustertest

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nbticache/internal/cache"
	"nbticache/internal/cluster"
	"nbticache/internal/engine"
	"nbticache/internal/httpapi"
	"nbticache/internal/workload"
)

// Options configures a harness cluster. The zero value is usable.
type Options struct {
	// Workers is the per-node engine pool size; <= 0 means 2.
	Workers int
	// GenDelay stalls every synthetic trace generation by this much —
	// a knob that slows jobs down without changing their results
	// (generation parameters stay identical across nodes, which the
	// content-addressed determinism depends on), so failure-injection
	// tests can reliably kill a node mid-sweep.
	GenDelay time.Duration
	// PollInterval is the coordinator's stall-backoff and stream-reopen
	// cadence; <= 0 means 25ms (fast, suited to in-process latencies).
	PollInterval time.Duration
	// HealthInterval is the coordinator's membership probe cadence;
	// 0 means 50ms (fast rejoin for in-process latencies), negative
	// disables the health loop.
	HealthInterval time.Duration
	// Replicas is the coordinator's owner-replication factor; <= 1
	// means no replication.
	Replicas int
}

// Node is one in-process nbtiserved instance.
type Node struct {
	// Name labels the node in test output ("node0", ...).
	Name string
	// URL is the node's base URL, the coordinator's peer address. It
	// survives Restart: the listener rebinds the same address.
	URL string
	// Engine is the node's live engine, reachable in-process for
	// shard-local assertions. Restart replaces it (the old one is
	// closed); read it after the restart you scripted, not across it.
	Engine *engine.Engine
	// DataDir is the node's private persistence root (a temp dir),
	// shared across Restart — that continuity is what lets a restarted
	// node answer re-dispatched jobs from its result cache.
	DataDir string

	cl   *Cluster
	addr string // host:port, for rebinding on Restart

	mu          sync.Mutex
	ts          *httptest.Server
	dead        bool
	partitioned bool
	// forget is how many more event-stream opens answer 404 (see
	// ForgetStreams).
	forget int
	// hold, while non-nil, stalls every trace generation on the node
	// until Kill closes it (see HoldGeneration).
	hold chan struct{}
}

// handler wraps a node's route table with the partition and
// forgotten-stream faults: while partitioned, every request — health
// probes included — answers 503, which to the coordinator is a
// reachable-but-unhealthy peer; a forgotten stream open answers 404.
func (n *Node) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		part := n.partitioned
		forget := n.forget > 0 && r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/events")
		if forget {
			n.forget--
		}
		n.mu.Unlock()
		switch {
		case part:
			w.Header().Set("Retry-After", "1")
			httpapi.WriteError(w, http.StatusServiceUnavailable, "partitioned (clustertest fault)")
		case forget:
			httpapi.WriteError(w, http.StatusNotFound, "no sweep (clustertest fault)")
		default:
			h.ServeHTTP(w, r)
		}
	})
}

// Kill force-closes the node's listener and engine, as close to a
// crash as an in-process node gets: established connections break, new
// ones are refused, in-flight jobs cancel. Idempotent. Restart brings
// the node back.
func (n *Node) Kill() {
	n.mu.Lock()
	if n.dead {
		n.mu.Unlock()
		return
	}
	n.dead = true
	ts, eng, hold := n.ts, n.Engine, n.hold
	n.hold = nil
	// Close outside the node lock: Server.Close waits for in-flight
	// requests, and an in-flight request (a health probe, say) takes
	// n.mu in the partition wrapper — holding the lock here deadlocks
	// the two.
	n.mu.Unlock()
	// Refuse new connections before breaking the established ones: a
	// severed event stream reconnects at once, and a stream accepted in
	// between would keep Server.Close waiting while the "dead" node
	// finishes its sub-sweep.
	ts.Listener.Close()
	ts.CloseClientConnections()
	ts.Close()
	// Held generations resume only now, with the node unreachable: what
	// they compute can never reach the coordinator.
	if hold != nil {
		close(hold)
	}
	eng.Close()
}

// HoldGeneration stalls every trace generation on the node — so each
// job it runs blocks before simulating — until the node is killed. A
// test can then kill the node with its whole sub-sweep still in flight,
// however loaded the host is.
func (n *Node) HoldGeneration() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.hold == nil {
		n.hold = make(chan struct{})
	}
}

// Restart brings a killed node back on the same address with the same
// data directory: a fresh engine warm-starts from the node's disk CAS
// (results and traces computed before the kill are resident again) and
// a new listener rebinds the crashed one's port, so the coordinator's
// stored peer URL works unchanged. The kernel can lag releasing the
// port after a close, so the rebind retries briefly.
func (n *Node) Restart(tb testing.TB) {
	tb.Helper()
	n.mu.Lock()
	dead := n.dead
	addr := n.addr
	n.mu.Unlock()
	if !dead {
		tb.Fatalf("%s: Restart of a live node (Kill it first)", n.Name)
	}
	// Build the replacement outside the node lock: the rebind can take
	// a while, and the partition wrapper must stay responsive meanwhile.
	// Tests drive each node from one goroutine, so dead cannot flip
	// between the check and the install below.
	eng, err := n.newEngine()
	if err != nil {
		tb.Fatal(err)
	}
	var ln net.Listener
	rebind := time.Now()
	for attempt := 0; ; attempt++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Since(rebind) > 10*time.Second {
			eng.Close()
			tb.Fatalf("%s: rebinding %s: %v", n.Name, addr, err)
		}
		// The bind itself is the readiness signal; retry tightly instead
		// of sleeping a blind fixed cadence.
		time.Sleep(time.Millisecond)
	}
	ts := httptest.NewUnstartedServer(n.handler(httpapi.NewServer(eng, httpapi.Config{}).Handler()))
	ts.Listener.Close()
	ts.Listener = ln
	ts.Start()
	n.mu.Lock()
	n.Engine = eng
	n.ts = ts
	n.dead = false
	n.mu.Unlock()
	// Return only once the node demonstrably serves requests, so tests
	// never race Restart against their first post-restart call.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(n.URL + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			tb.Fatalf("%s: restarted node never became healthy (last err %v)", n.Name, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// SeverConnections force-closes every established client connection to
// the node — in-flight event streams included — without touching the
// listener or the engine: the very next request succeeds. This is the
// mid-sweep stream-sever fault the cursor-resume path is proven by.
func (n *Node) SeverConnections() {
	n.mu.Lock()
	ts := n.ts
	n.mu.Unlock()
	ts.CloseClientConnections()
}

// ForgetStreams answers the node's next k event-stream opens with 404,
// as a node does once retention has evicted the finished sub-sweep the
// stream belongs to. The sub-sweep itself runs on untouched.
func (n *Node) ForgetStreams(k int) {
	n.mu.Lock()
	n.forget += k
	n.mu.Unlock()
}

// Partition toggles the node's 503 fault: on=true makes every request
// (health probes included) answer 503 until Partition(false). The
// process stays up — engine state is untouched — which models a node
// behind a sick load balancer or an overloaded peer, and exercises the
// evict-then-rejoin path without losing the listener.
func (n *Node) Partition(on bool) {
	n.mu.Lock()
	n.partitioned = on
	n.mu.Unlock()
}

// Cluster is a set of harness nodes.
type Cluster struct {
	Nodes []*Node
	opts  Options
}

// newEngine builds the node's engine with the cluster's shared
// configuration — identical across nodes and across Restart, which is
// the content-addressed determinism contract.
func (n *Node) newEngine() (*engine.Engine, error) {
	opts := n.cl.opts
	return engine.New(engine.Options{
		Workers: opts.Workers,
		DataDir: n.DataDir,
		Gen: func(g cache.Geometry) workload.GenParams {
			n.mu.Lock()
			hold := n.hold
			n.mu.Unlock()
			if hold != nil {
				<-hold
			}
			if opts.GenDelay > 0 {
				time.Sleep(opts.GenDelay)
			}
			return workload.GenParams{Geometry: g, Phases: 16, AccessesPerPhase: 64}
		},
	})
}

// StartNode adds one more node to the cluster at runtime — not known
// to any existing coordinator, which is the point: tests announce it
// through the join endpoint and watch the ring grow.
func (cl *Cluster) StartNode(tb testing.TB) *Node {
	tb.Helper()
	node := &Node{
		Name:    fmt.Sprintf("node%d", len(cl.Nodes)),
		DataDir: tb.TempDir(),
		cl:      cl,
	}
	eng, err := node.newEngine()
	if err != nil {
		tb.Fatal(err)
	}
	node.Engine = eng
	ts := httptest.NewServer(node.handler(httpapi.NewServer(eng, httpapi.Config{}).Handler()))
	node.ts = ts
	node.URL = ts.URL
	node.addr = ts.Listener.Addr().String()
	tb.Cleanup(node.Kill)
	cl.Nodes = append(cl.Nodes, node)
	return node
}

// Start builds n nodes, each with its own temp data directory and an
// identical quick-generation engine (identical configuration is the
// cluster's determinism contract), and registers their teardown on tb.
func Start(tb testing.TB, n int, opts Options) *Cluster {
	tb.Helper()
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 25 * time.Millisecond
	}
	if opts.HealthInterval == 0 {
		opts.HealthInterval = 50 * time.Millisecond
	}
	cl := &Cluster{opts: opts}
	for i := 0; i < n; i++ {
		cl.StartNode(tb)
	}
	return cl
}

// URLs lists the nodes' base URLs in start order.
func (cl *Cluster) URLs() []string {
	out := make([]string, len(cl.Nodes))
	for i, n := range cl.Nodes {
		out[i] = n.URL
	}
	return out
}

// ByURL resolves a node from its peer address.
func (cl *Cluster) ByURL(url string) *Node {
	for _, n := range cl.Nodes {
		if n.URL == url {
			return n
		}
	}
	return nil
}

// Coordinator builds a coordinator over every node, tuned for
// in-process latencies, and registers its teardown on tb. Sweep state
// is memory-only; use CoordinatorAt to script a coordinator restart.
func (cl *Cluster) Coordinator(tb testing.TB) *cluster.Coordinator {
	tb.Helper()
	return cl.CoordinatorAt(tb, "")
}

// CoordinatorAt is Coordinator with a persistence root for the
// coordinator's sweep state. Two sequential CoordinatorAt calls over
// the same dir script a coordinator restart: close the first, build
// the second, Resume. Empty dir means memory-only.
func (cl *Cluster) CoordinatorAt(tb testing.TB, dataDir string) *cluster.Coordinator {
	tb.Helper()
	c, err := cluster.New(cluster.Options{
		Peers:          cl.URLs(),
		PollInterval:   cl.opts.PollInterval,
		HealthInterval: cl.opts.HealthInterval,
		OwnerReplicas:  cl.opts.Replicas,
		DataDir:        dataDir,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	return c
}
