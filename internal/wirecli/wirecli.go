// Package wirecli wires transport backend selection into command-line
// programs: a -wire flag choosing among the Wire backends, the
// multi-process TCP launcher flags (-ranks, -rank-id, -rendezvous), and
// a self-forking -spawn convenience mode that turns one invocation into
// N rank processes on localhost. cmd/graph500, cmd/ygm-bench, and the
// examples all share this plumbing.
package wirecli

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"

	"ygm/internal/transport"
)

// Flags holds the wire-selection flag values for one program.
type Flags struct {
	// Wire names the backend: "sim", "local", or "tcp".
	Wire string
	// Ranks is the expected number of rank processes (tcp). Optional
	// when the program's topology flags already determine the world
	// size; when set it is cross-checked against that size.
	Ranks int
	// RankID is this process's rank under -wire=tcp.
	RankID int
	// Rendezvous is the host:port of rank 0's rendezvous listener.
	Rendezvous string
	// Spawn forks this program into one process per rank and waits.
	Spawn bool
}

// Register installs the wire flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Wire, "wire", "sim",
		"transport backend: sim (virtual-time simulator), local (in-process real-time), tcp (multi-process over localhost)")
	fs.IntVar(&f.Ranks, "ranks", 0, "tcp: number of rank processes; cross-checked against the topology")
	fs.IntVar(&f.RankID, "rank-id", -1, "tcp: this process's rank in 0..ranks-1")
	fs.StringVar(&f.Rendezvous, "rendezvous", "", "tcp: host:port of the rank-0 rendezvous listener")
	fs.BoolVar(&f.Spawn, "spawn", false, "tcp: fork this program into one process per rank on localhost and wait")
}

// Validate checks the flag combination against the world size the
// program's topology produces.
func (f *Flags) Validate(world int) error {
	switch f.Wire {
	case "sim", "local":
		if f.Spawn || f.RankID >= 0 || f.Rendezvous != "" {
			return fmt.Errorf("wirecli: -spawn/-rank-id/-rendezvous require -wire=tcp")
		}
		return nil
	case "tcp":
		if f.Ranks > 0 && f.Ranks != world {
			return fmt.Errorf("wirecli: -ranks %d does not match the %d-rank topology", f.Ranks, world)
		}
		if f.Spawn {
			return nil // the launcher fills in -rank-id/-rendezvous
		}
		if f.RankID < 0 || f.RankID >= world {
			return fmt.Errorf("wirecli: -wire=tcp needs -rank-id in 0..%d (or -spawn)", world-1)
		}
		if f.Rendezvous == "" {
			return fmt.Errorf("wirecli: -wire=tcp needs -rendezvous host:port (or -spawn)")
		}
		return nil
	default:
		return fmt.Errorf("wirecli: unknown -wire %q (have sim, local, tcp)", f.Wire)
	}
}

// NewWire builds a fresh backend for one transport.Run. Wire values are
// single-use, so programs that call transport.Run repeatedly (graph500
// runs one per search root) call NewWire before each run; every process
// reuses the same rendezvous address, which works because the runs
// happen in the same deterministic order in all processes and the
// rendezvous root re-listens each time.
func (f *Flags) NewWire() (transport.Wire, error) {
	switch f.Wire {
	case "sim":
		return transport.SimWire{}, nil
	case "local":
		return transport.LocalWire{}, nil
	case "tcp":
		return transport.NewTCPWire(transport.TCPOptions{
			Rank:       f.RankID,
			Rendezvous: f.Rendezvous,
		}), nil
	}
	return nil, fmt.Errorf("wirecli: unknown -wire %q", f.Wire)
}

// IsRoot reports whether this process should print results: always for
// the in-process wires, rank 0 only under -wire=tcp (every process
// computes the same results; printing them once keeps output identical
// to a single-process run).
func (f *Flags) IsRoot() bool {
	return f.Wire != "tcp" || f.RankID == 0 || f.Spawn
}

// Launch implements -spawn: when set (with -wire=tcp), it re-execs this
// program once per rank — the original arguments minus the launcher
// flags, plus -rank-id/-rendezvous/-ranks — streams rank 0's stdout
// through, waits for all ranks, and returns done=true so the caller
// exits. In every other mode it returns done=false and the caller
// proceeds to run (as the single process, or as the one rank the flags
// describe).
func (f *Flags) Launch(world int, rawArgs []string) (bool, error) {
	if f.Wire != "tcp" || !f.Spawn {
		return false, nil
	}
	addr, err := reserveLoopbackAddr()
	if err != nil {
		return true, fmt.Errorf("wirecli: reserving rendezvous port: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return true, err
	}
	base := stripLauncherFlags(rawArgs)
	cmds := make([]*exec.Cmd, world)
	outs := make([]*bytes.Buffer, world)
	for r := 0; r < world; r++ {
		args := append(append([]string{}, base...),
			"-wire=tcp",
			fmt.Sprintf("-ranks=%d", world),
			fmt.Sprintf("-rank-id=%d", r),
			"-rendezvous="+addr,
		)
		cmd := exec.Command(exe, args...)
		if r == 0 {
			cmd.Stdout = os.Stdout
			cmd.Stderr = os.Stderr
		} else {
			buf := &bytes.Buffer{}
			cmd.Stdout = buf
			cmd.Stderr = buf
			outs[r] = buf
		}
		if err := cmd.Start(); err != nil {
			for _, c := range cmds[:r] {
				c.Process.Kill()
			}
			return true, fmt.Errorf("wirecli: starting rank %d: %w", r, err)
		}
		cmds[r] = cmd
	}
	var firstErr error
	for r, cmd := range cmds {
		if err := cmd.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("wirecli: rank %d process: %w", r, err)
			if outs[r] != nil && outs[r].Len() > 0 {
				io.Copy(os.Stderr, outs[r])
			}
		}
	}
	return true, firstErr
}

// launcherFlags are the flags Launch owns and must strip from the
// arguments it forwards to the rank processes (it appends its own
// values). Flags taking a value may appear as -name=v or -name v.
var launcherFlags = map[string]bool{
	"spawn": false, "wire": true, "ranks": true, "rank-id": true, "rendezvous": true,
}

func stripLauncherFlags(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		name, hasValue := strings.TrimLeft(a, "-"), strings.Contains(a, "=")
		if eq := strings.IndexByte(name, '='); eq >= 0 {
			name = name[:eq]
		}
		takesValue, owned := launcherFlags[name]
		if !owned || !strings.HasPrefix(a, "-") {
			out = append(out, a)
			continue
		}
		if takesValue && !hasValue {
			i++ // skip the separate value token
		}
	}
	return out
}

// ephemeralRangeFile holds the kernel's ephemeral port range, the pool
// a ":0" bind draws from.
const ephemeralRangeFile = "/proc/sys/net/ipv4/ip_local_port_range"

// Probe window used when the ephemeral range cannot be read: just below
// Linux's default range of 32768–60999.
const (
	fallbackWindowLo = 20000
	fallbackWindowHi = 31999
)

// reserveLoopbackAddr picks a free loopback port for rank 0's
// rendezvous listener. The port must lie outside the ephemeral range:
// every rank binds its own mesh listener to ":0", and a port that was
// itself drawn from the ephemeral pool and released could be handed to
// one of those binds before rank 0 claims it, failing the world at the
// handshake deadline. So the launcher probes a window below the range,
// starting at a per-process offset so concurrent launchers spread out.
func reserveLoopbackAddr() (string, error) {
	lo, hi := rendezvousWindow(ephemeralRangeFile)
	n := hi - lo + 1
	start := os.Getpid() % n
	var lastErr error
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("127.0.0.1:%d", lo+(start+i)%n)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			lastErr = err
			continue
		}
		ln.Close()
		return addr, nil
	}
	return "", fmt.Errorf("no free loopback port in %d-%d: %w", lo, hi, lastErr)
}

// rendezvousWindow returns the port window to probe: up to 12000 ports
// just below the ephemeral range read from rangeFile, or just above it
// when the range starts too low to leave room, or the fallback window
// when the file is unreadable or the range spans every port.
func rendezvousWindow(rangeFile string) (lo, hi int) {
	const width, minPort, maxPort = 12000, 1024, 65535
	b, err := os.ReadFile(rangeFile)
	if err != nil {
		return fallbackWindowLo, fallbackWindowHi
	}
	var eLo, eHi int
	if _, err := fmt.Sscan(string(b), &eLo, &eHi); err != nil || eLo > eHi {
		return fallbackWindowLo, fallbackWindowHi
	}
	if eLo-1 >= minPort {
		return max(minPort, eLo-width), eLo - 1
	}
	if eHi+1 <= maxPort {
		return eHi + 1, min(maxPort, eHi+width)
	}
	return fallbackWindowLo, fallbackWindowHi
}
