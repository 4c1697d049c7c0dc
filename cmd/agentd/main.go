// Command agentd is a per-node agent daemon: it loads a policy
// checkpoint and serves coordination decisions over the agentnet binary
// TCP protocol. A driver (coordsim -agents, bench -rpc, or any
// coord.Remote client) connects, assigns the daemon a set of nodes in
// the handshake, and streams observation rows; the daemon answers with
// actions sampled from its copy of the actor with per-node streams —
// exactly the computation the in-process Distributed coordinator
// performs, moved behind a socket.
//
// Usage:
//
//	agentd -listen 127.0.0.1:7501 -model policy.bin
//	agentd -listen :0 -model policy.bin          # free port, printed on stdout
//	agentd -listen :7501 -model policy.bin -persist deployed.bin
//
// The daemon prints "agentd listening on ADDR" on stdout once the
// socket is bound (drivers that spawn agentd processes parse this line
// to learn the port), then serves until SIGINT/SIGTERM. With -persist,
// checkpoints deployed by a model push are also written to that path
// (verified, atomic temp+rename), so a restarted daemon comes back with
// the model the control plane last pushed.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"distcoord/internal/agentnet"
	"distcoord/internal/clicfg"
	"distcoord/internal/coord"
)

func main() {
	model := flag.String("model", "", "policy checkpoint to serve (required; see coordsim -save-model)")
	persist := flag.String("persist", "", "persist pushed checkpoints to this path (verified atomic write)")
	id := flag.String("id", "", "agent identity reported in handshakes (default: agentd-<pid>)")
	idle := flag.Duration("idle-timeout", 2*time.Minute, "drop connections idle longer than this")
	quiet := flag.Bool("quiet", false, "suppress per-connection log lines")
	shared := clicfg.Register(flag.CommandLine)
	flag.Parse()

	if err := run(*model, *persist, *id, *idle, *quiet, shared); err != nil {
		fmt.Fprintln(os.Stderr, "agentd:", err)
		os.Exit(1)
	}
}

func run(model, persist, id string, idle time.Duration, quiet bool, shared *clicfg.Flags) error {
	// Apply (not just Validate) so -obs-addr gives the daemon its own
	// live observability endpoint: /metrics exposes the agentd.* decision
	// telemetry below, /timeseries its sampled history.
	rt, err := shared.Apply()
	if err != nil {
		return err
	}
	defer rt.Close()
	if shared.Listen == "" {
		return fmt.Errorf("-listen is required (the daemon serves decisions on it)")
	}
	if model == "" {
		return fmt.Errorf("-model is required (generate one with coordsim -algo drl -save-model)")
	}
	checkpoint, err := os.ReadFile(model)
	if err != nil {
		return err
	}
	if id == "" {
		id = fmt.Sprintf("agentd-%d", os.Getpid())
	}
	logf := log.New(os.Stderr, id+": ", log.LstdFlags).Printf
	if quiet {
		logf = nil
	}
	host, err := coord.NewAgentHost(id, checkpoint, persist, logf)
	if err != nil {
		return err
	}
	reg := rt.Registry()
	rt.SetObsInfo("id", id)
	rt.SetObsInfo("model_hash", host.ModelHash())
	host.OnDeploy = func(hash string) {
		reg.Counter("agentd.deploys").Inc()
		rt.SetObsInfo("model_hash", hash)
	}
	srv := agentnet.NewServer(host.NewBackend, agentnet.ServerConfig{
		IdleTimeout: idle,
		Logf:        logf,
		// Server-side decision telemetry: request and row counters plus
		// the sub-span histograms a driver's client-side timing cannot
		// see (encode time lands in the driver's network share).
		ObserveDecide: func(batch int, serverNS, inferNS, encodeNS int64) {
			reg.Counter("agentd.requests").Inc()
			reg.Counter("agentd.decisions").Add(int64(batch))
			reg.Histogram("agentd.server_us").Observe(float64(serverNS) / 1e3)
			reg.Histogram("agentd.infer_us").Observe(float64(inferNS) / 1e3)
			reg.Histogram("agentd.encode_us").Observe(float64(encodeNS) / 1e3)
		},
	})
	addr, err := srv.Listen(shared.Listen)
	if err != nil {
		return err
	}
	// Drivers spawning local agentd processes parse this exact line to
	// learn where a ":0" listener landed.
	fmt.Printf("agentd listening on %s\n", addr)
	os.Stdout.Sync()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Fprintf(os.Stderr, "agentd: %s, shutting down\n", s)
	return srv.Close()
}
