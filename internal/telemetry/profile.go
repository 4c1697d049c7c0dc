package telemetry

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// Profiler bundles the standard Go profiling hooks behind three flags so
// every binary exposes them uniformly: a CPU profile over the process
// lifetime, a heap profile at exit, and a live net/http/pprof endpoint.
//
//	var prof telemetry.Profiler
//	prof.RegisterFlags(flag.CommandLine)
//	flag.Parse()
//	if err := prof.Start(); err != nil { ... }
//	defer prof.Stop()
type Profiler struct {
	CPUProfile string // write a CPU profile here (pprof format)
	MemProfile string // write a heap profile here on Stop
	PprofAddr  string // serve net/http/pprof on this address

	cpuFile *os.File
	ln      net.Listener
	srv     *http.Server
}

// RegisterFlags installs the -cpuprofile, -memprofile, and -pprof flags.
func (p *Profiler) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&p.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&p.PprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
}

// Enabled reports whether any profiling output was requested.
func (p *Profiler) Enabled() bool {
	return p.CPUProfile != "" || p.MemProfile != "" || p.PprofAddr != ""
}

// Start begins CPU profiling and the pprof listener as configured. It is
// a no-op when nothing was requested.
func (p *Profiler) Start() error {
	if p.CPUProfile != "" {
		f, err := os.Create(p.CPUProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("telemetry: starting CPU profile: %w", err)
		}
		p.cpuFile = f
	}
	if p.PprofAddr != "" {
		ln, err := net.Listen("tcp", p.PprofAddr)
		if err != nil {
			p.Stop()
			return fmt.Errorf("telemetry: pprof listener: %w", err)
		}
		p.ln = ln
		p.srv = &http.Server{Handler: pprofMux(), ReadHeaderTimeout: readHeaderTimeout}
		go p.srv.Serve(ln) //nolint:errcheck // ErrServerClosed on Stop
	}
	return nil
}

// pprofMux builds a private mux that forwards only /debug/pprof/*.
// Serving http.DefaultServeMux here would leak every handler any other
// package registers globally onto the profiling port.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	return mux
}

// Addr returns the pprof listener's bound address ("" when disabled),
// useful with ":0" style addresses.
func (p *Profiler) Addr() string {
	if p.ln == nil {
		return ""
	}
	return p.ln.Addr().String()
}

// Stop finishes the CPU profile, writes the heap profile, and shuts the
// pprof listener down. Safe to call when Start failed or did nothing.
func (p *Profiler) Stop() error {
	var firstErr error
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		p.cpuFile = nil
	}
	if p.MemProfile != "" {
		if err := writeHeapProfile(p.MemProfile); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if p.srv != nil {
		p.srv.SetKeepAlivesEnabled(false)
		done := make(chan struct{})
		go func() { p.srv.Close(); close(done) }()
		select {
		case <-done:
		case <-time.After(time.Second):
		}
		p.srv, p.ln = nil, nil
	}
	return firstErr
}

// writeHeapProfile captures an up-to-date heap profile.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // materialize recent frees so the profile reflects live heap
	return pprof.WriteHeapProfile(f)
}
