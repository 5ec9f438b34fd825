// Command tigerd runs Tiger nodes — the controller and cubs — as real
// network processes speaking the wire protocol over TCP. It exists to
// demonstrate that the protocol implementation in internal/core is not
// simulator-bound: the same code that reproduces the paper's figures
// under virtual time serves real streams under wall-clock time.
//
// Single-process demo (controller + all cubs on loopback):
//
//	tigerd -cubs 4 -listen 127.0.0.1:7000
//
// Multi-process deployment (one node per process):
//
//	tigerd -node controller -addrs ctl=127.0.0.1:7000,0=...,1=...
//	tigerd -node 0 -addrs ...   # fetches the epoch from the controller
//
// Use tigerctl to start and stop streams.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tiger/internal/core"
	"tiger/internal/msg"
	"tiger/internal/obs"
	"tiger/internal/rt"
	"tiger/internal/spec"
	"tiger/internal/trace"
)

var (
	nodeFlag  = flag.String("node", "all", `node to run: "controller", a cub number, or "all" (single-process demo)`)
	listen    = flag.String("listen", "127.0.0.1:7000", "base listen address (all mode: controller here, cubs on successive ports)")
	addrsFlag = flag.String("addrs", "", "node address map for multi-process mode: ctl=host:port,0=host:port,1=...")

	cubs      = flag.Int("cubs", 4, "number of cubs")
	disks     = flag.Int("disks", 1, "disks per cub")
	decluster = flag.Int("decluster", 2, "decluster factor")
	blockPlay = flag.Duration("blockplay", 250*time.Millisecond, "block play time (demo scale)")
	blockSize = flag.Int64("blocksize", 65536, "bytes per block")
	files     = flag.Int("files", 4, "number of striped content files")
	blocks    = flag.Int("blocks", 2400, "blocks per file")

	epochFlag = flag.String("epoch", "", "shared epoch (unix nanos); cubs default to fetching it from the controller's epoch port")
	epochPort = flag.String("epoch-listen", "", "controller epoch service address (default: control port + 1000)")

	configFlag  = flag.String("config", "", "cluster spec JSON; overrides the shape flags and -addrs")
	writeConfig = flag.String("write-config", "", "write a template cluster spec for -cubs nodes to this path and exit")

	debugFlag = flag.String("debug", "", `debug HTTP address serving /metrics, /healthz, /debug/vars, /debug/trace, /debug/pprof (default: control port + 2000; "off" disables)`)
	traceCap  = flag.Int("trace", 65536, "protocol trace ring capacity (events kept for /debug/trace)")
	chainCap  = flag.Int("chains", 4096, "causal block chains retained for /debug/trace/{stream} (0 disables causal tracing)")
)

func main() {
	flag.Parse()
	log.SetFlags(log.Ltime | log.Lmicroseconds)

	if *writeConfig != "" {
		if err := spec.Default(*cubs).Save(*writeConfig); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote cluster spec for %d cubs to %s", *cubs, *writeConfig)
		return
	}

	sp := spec.ClusterSpec{Cubs: *cubs, DisksPerCub: *disks, Decluster: *decluster,
		BlockPlayMs: int(*blockPlay / time.Millisecond), BlockSize: *blockSize,
		NumFiles: *files, FileBlocks: *blocks}
	if *configFlag != "" {
		var err error
		if sp, err = spec.Load(*configFlag); err != nil {
			log.Fatal(err)
		}
		if missing := sp.MissingAddrs(); len(missing) > 0 && *nodeFlag != "all" {
			log.Fatalf("spec %s lacks addresses for %v", *configFlag, missing)
		}
	}
	cfg, err := sp.Config()
	if err != nil {
		log.Fatal(err)
	}
	*cubs = sp.Cubs
	if len(sp.Addrs) > 0 {
		addrs, aerr := sp.NodeAddrs()
		if aerr != nil {
			log.Fatal(aerr)
		}
		specAddrs = addrs
		if a, ok := addrs[msg.Controller]; ok {
			*listen = a
		}
	}

	switch *nodeFlag {
	case "all":
		runAll(cfg)
	case "controller", "ctl":
		runController(cfg, *listen, parseAddrs())
	default:
		id, err := strconv.Atoi(*nodeFlag)
		if err != nil || id < 0 || id >= *cubs {
			log.Fatalf("bad -node %q: want controller, all, or 0..%d", *nodeFlag, *cubs-1)
		}
		runCub(cfg, msg.NodeID(id), parseAddrs())
	}
}

// specAddrs holds addresses loaded from -config; -addrs supplements it.
var specAddrs map[msg.NodeID]string

func parseAddrs() map[msg.NodeID]string {
	addrs := make(map[msg.NodeID]string)
	for k, v := range specAddrs {
		addrs[k] = v
	}
	if *addrsFlag == "" {
		return addrs
	}
	for _, kv := range strings.Split(*addrsFlag, ",") {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			log.Fatalf("bad -addrs entry %q", kv)
		}
		if parts[0] == "ctl" || parts[0] == "controller" {
			addrs[msg.Controller] = parts[1]
			continue
		}
		id, err := strconv.Atoi(parts[0])
		if err != nil {
			log.Fatalf("bad -addrs node %q", parts[0])
		}
		addrs[msg.NodeID(id)] = parts[1]
	}
	return addrs
}

func epoch() time.Time {
	if *epochFlag == "" {
		return time.Now()
	}
	ns, err := strconv.ParseInt(*epochFlag, 10, 64)
	if err != nil {
		log.Fatalf("bad -epoch %q", *epochFlag)
	}
	return time.Unix(0, ns)
}

func portShift(addr string, delta int) string {
	host, portStr, found := strings.Cut(addr, ":")
	if !found {
		log.Fatalf("address %q has no port", addr)
	}
	p, err := strconv.Atoi(portStr)
	if err != nil {
		log.Fatalf("address %q has a bad port", addr)
	}
	return fmt.Sprintf("%s:%d", host, p+delta)
}

// debugAddr resolves the -debug flag against a node's control address.
func debugAddr(controlAddr string) string {
	switch *debugFlag {
	case "off":
		return ""
	case "":
		return portShift(controlAddr, 2000)
	default:
		return *debugFlag
	}
}

// observe wires a process's nodes to its observability surface, the
// same way for every node mix: one registry (carrying the trace ring's
// volume and loss counters), one trace ring, one causal chain log (nil
// when -chains is 0), and the debug server over them at the address
// -debug resolves against controlAddr. ctl is nil in a cub process and
// hosts empty in a controller process. The server is nil when -debug is
// off.
func observe(ctl *rt.ControllerHost, hosts []*rt.CubHost, controlAddr string, info map[string]string) *rt.DebugServer {
	reg := obs.NewRegistry()
	ring := trace.NewRing(*traceCap)
	reg.CounterFunc("tiger_trace_events_total",
		"Protocol trace events recorded into the debug ring.",
		nil, func() float64 { return float64(ring.Total()) })
	reg.CounterFunc("tiger_trace_dropped_total",
		"Protocol trace events evicted from the bounded debug ring.",
		nil, func() float64 { return float64(ring.Dropped()) })
	dc := rt.DebugConfig{Registry: reg, Trace: ring, Info: info}
	var chain *trace.ChainLog
	if *chainCap > 0 {
		// All of this process's nodes share one log, so a chain lookup
		// is a read plus a deterministic time sort.
		chain = trace.NewChainLog(*chainCap, 64)
		dc.Chains = func(inst msg.InstanceID, block int32) []trace.Hop {
			hops := chain.Chain(inst, block)
			trace.SortHops(hops)
			return hops
		}
		dc.ChainKeys = chain.Keys
	}
	if ctl != nil {
		ctl.AttachObs(reg)
		ctl.AttachChainLog(chain)
	}
	if len(hosts) > 0 {
		dc.Views = make(map[string]func(time.Duration) (string, error), len(hosts))
		dc.Events = make(map[string]func() uint64, len(hosts))
	}
	for _, h := range hosts {
		h.AttachObs(reg)
		h.AttachTrace(ring)
		h.AttachChainLog(chain)
		dc.Views[h.Cub.ID().String()] = h.DumpView
		dc.Events[h.Cub.ID().String()] = h.Node.Processed
	}
	addr := debugAddr(controlAddr)
	if addr == "" {
		return nil
	}
	d, err := rt.StartDebug(addr, dc)
	if err != nil {
		log.Fatalf("debug listener: %v", err)
	}
	log.Printf("debug http on %s (/metrics /healthz /debug/vars /debug/trace /debug/pprof)", d.Addr())
	return d
}

// runAll hosts the whole system in one process: the zero-to-streams demo.
func runAll(cfg *core.Config) {
	ep := epoch()
	addrs := map[msg.NodeID]string{msg.Controller: *listen}
	for i := 0; i < *cubs; i++ {
		addrs[msg.NodeID(i)] = portShift(*listen, i+1)
	}
	ctl, err := rt.StartControllerHost(cfg, addrs[msg.Controller], addrs, ep)
	if err != nil {
		log.Fatal(err)
	}
	defer ctl.Close()
	epAddr := *epochPort
	if epAddr == "" {
		epAddr = portShift(*listen, 1000)
	}
	if _, err := ctl.ServeEpoch(epAddr); err != nil {
		log.Fatal(err)
	}
	var hosts []*rt.CubHost
	for i := 0; i < *cubs; i++ {
		h, err := rt.StartCubHost(msg.NodeID(i), cfg, addrs[msg.NodeID(i)], addrs, ep, int64(i+1))
		if err != nil {
			log.Fatal(err)
		}
		defer h.Close()
		hosts = append(hosts, h)
	}
	if d := observe(ctl, hosts, *listen, map[string]string{"node": "all", "controller": addrs[msg.Controller]}); d != nil {
		defer d.Close()
	}
	cap := cfg.Capacity()
	log.Printf("tiger system up: %d cubs x %d disks, %d files, capacity %d streams (%.2f/disk)",
		cfg.Layout.Cubs, cfg.Layout.DisksPerCub, len(cfg.Files), cap.Streams, cap.StreamsPerDisk)
	log.Printf("controller at %s (epoch service %s); cubs at %s..%s",
		addrs[msg.Controller], epAddr, addrs[0], addrs[msg.NodeID(*cubs-1)])
	log.Printf("start a stream: tigerctl -controller %s -play 0", addrs[msg.Controller])

	waitForSignal()
	log.Printf("shutting down")
	for _, h := range hosts {
		st := h.Cub.Stats()
		log.Printf("cub %v: sent %d blocks, %d pieces, %d inserts, %d misses",
			h.Cub.ID(), st.BlocksSent, st.PiecesSent, st.Inserts, st.ServerMisses)
	}
}

func runController(cfg *core.Config, listenAddr string, addrs map[msg.NodeID]string) {
	ep := epoch()
	if addrs[msg.Controller] == "" {
		addrs[msg.Controller] = listenAddr
	}
	ctl, err := rt.StartControllerHost(cfg, listenAddr, addrs, ep)
	if err != nil {
		log.Fatal(err)
	}
	defer ctl.Close()
	epAddr := *epochPort
	if epAddr == "" {
		epAddr = portShift(listenAddr, 1000)
	}
	if _, err := ctl.ServeEpoch(epAddr); err != nil {
		log.Fatal(err)
	}
	if d := observe(ctl, nil, listenAddr, map[string]string{"node": "controller", "listen": listenAddr}); d != nil {
		defer d.Close()
	}
	log.Printf("controller on %s (epoch %d, epoch service %s)", listenAddr, ep.UnixNano(), epAddr)
	waitForSignal()
}

func runCub(cfg *core.Config, id msg.NodeID, addrs map[msg.NodeID]string) {
	ep := epoch()
	if *epochFlag == "" {
		// The controller is the clock master (§2.1): fetch the epoch.
		ctlAddr, ok := addrs[msg.Controller]
		if !ok {
			log.Fatal("cub mode needs the controller in -addrs to fetch the epoch")
		}
		fetched, err := rt.FetchEpoch(portShift(ctlAddr, 1000))
		if err != nil {
			log.Fatalf("epoch fetch: %v", err)
		}
		ep = fetched
	}
	listenAddr, ok := addrs[id]
	if !ok {
		log.Fatalf("no address for %v in -addrs", id)
	}
	h, err := rt.StartCubHost(id, cfg, listenAddr, addrs, ep, int64(id)+1)
	if err != nil {
		log.Fatal(err)
	}
	defer h.Close()
	if d := observe(nil, []*rt.CubHost{h}, listenAddr, map[string]string{"node": id.String(), "listen": listenAddr}); d != nil {
		defer d.Close()
	}
	log.Printf("%v on %s", id, listenAddr)
	waitForSignal()
	st := h.Cub.Stats()
	log.Printf("%v: sent %d blocks, %d pieces, %d inserts", id, st.BlocksSent, st.PiecesSent, st.Inserts)
}

func waitForSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	<-ch
}
