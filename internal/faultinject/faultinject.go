// Package faultinject is the engine's deterministic fault-injection
// layer: named injection sites sprinkled through the serving and
// persistence paths that, when a profile is active, fail on purpose —
// returning errors, panicking, sleeping, running out of disk space or
// tearing file writes — so tests and chaos runs can prove the system
// degrades the way the anytime contract promises instead of crashing
// or corrupting state.
//
// # Injection-site grammar
//
// A profile is a semicolon-separated list of entries:
//
//	profile := entry (';' entry)*
//	entry   := 'seed=' uint | site '=' kind [':' arg] ['@' rate] ['#' count]
//	site    := dotted lowercase name ("server.optimize", "checkpoint.write")
//	kind    := 'error' | 'panic' | 'latency' | 'enospc' | 'partial' | 'torn'
//	         | 'conn-refused' | 'partition' | 'slow-peer'
//	arg     := duration (latency and slow-peer, e.g. "latency:50ms")
//	rate    := float in (0, 1], probability per call (default 1: every call)
//	count   := uint, maximum number of fires (default unlimited)
//
// Examples:
//
//	server.optimize=panic@0.02              panic in 2% of optimize handlers
//	checkpoint.write=enospc@0.3             ENOSPC on 30% of checkpoint writes
//	checkpoint.rename=torn#1                tear exactly one rename, then behave
//	opt.worker.step=latency:5ms@0.001       stall 0.1% of optimizer steps
//	replica.pull=partition@0.2#10           drop 20% of replication pulls
//	router.forward=conn-refused#3           refuse three forwarded requests
//	replica.pull=slow-peer:100ms@0.5        congest half the pulls
//	seed=7                                  seed of the firing pattern
//
// Profiles activate via the -faults flag of rmqd and rmqrouter, the
// RMQ_FAULTS environment variable when the flag is empty (both read by
// Arm, which the two commands call at startup), or programmatically via
// Enable in tests.
//
// # Determinism
//
// Firing decisions are seed-driven and per-site: each site derives its
// own stream seed from the profile seed and the site name, and advances
// a private call counter, so the same sequence of calls at a site fires
// identically regardless of how calls at other sites interleave. Two
// runs with the same profile and the same per-site call sequences
// observe the same faults.
//
// # Cost when disabled
//
// The whole layer is one atomic pointer load when no profile is active.
// Check and Enabled are //rmq:hotpath and allocation-free on every path
// (injected errors and panic values are preallocated when the profile
// is parsed), so rmqlint's hotalloc analyzer verifies the disabled-path
// cost stays zero-alloc.
package faultinject

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// Kind names one injected failure behavior.
type Kind uint8

const (
	// KindError returns an injected *Error from Check.
	KindError Kind = iota
	// KindPanic panics with an injected *Error value.
	KindPanic
	// KindLatency sleeps for the configured duration, then succeeds.
	KindLatency
	// KindENOSPC returns an *Error wrapping syscall.ENOSPC — the
	// disk-full failure of filesystem sites.
	KindENOSPC
	// KindPartial applies to write sites: half the data is written,
	// then an ENOSPC-wrapping error is returned (a torn file).
	KindPartial
	// KindTorn applies to rename sites: the destination receives a
	// truncated copy of the source and the call reports success — the
	// silent corruption of a non-atomic filesystem dying mid-rename.
	KindTorn
	// KindConnRefused models a dead peer: network sites fail immediately
	// with a dial error unwrapping to syscall.ECONNREFUSED.
	KindConnRefused
	// KindPartition models a broken network path: network sites fail
	// with a timeout-flavored i/o error (the request neither reaches the
	// peer nor returns).
	KindPartition
	// KindSlowPeer models a congested peer: network sites stall for the
	// configured duration, then proceed.
	KindSlowPeer
)

// String returns the grammar name of the kind.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindLatency:
		return "latency"
	case KindENOSPC:
		return "enospc"
	case KindPartial:
		return "partial"
	case KindTorn:
		return "torn"
	case KindConnRefused:
		return "conn-refused"
	case KindPartition:
		return "partition"
	case KindSlowPeer:
		return "slow-peer"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Error is the error (and panic value) produced by a firing site.
// KindENOSPC and KindPartial errors unwrap to syscall.ENOSPC, so
// errors.Is(err, syscall.ENOSPC) holds for them.
type Error struct {
	Site string
	Kind Kind
}

// Error implements the error interface.
func (e *Error) Error() string {
	return "faultinject: injected " + e.Kind.String() + " at " + e.Site
}

// Unwrap exposes the ENOSPC cause of disk-space faults and the
// ECONNREFUSED cause of dead-peer faults.
func (e *Error) Unwrap() error {
	switch e.Kind {
	case KindENOSPC, KindPartial:
		return syscall.ENOSPC
	case KindConnRefused:
		return syscall.ECONNREFUSED
	default:
		return nil
	}
}

// Timeout reports whether the fault models an i/o timeout. It makes a
// partition fault wrapped in a *net.OpError satisfy net.Error.Timeout,
// exactly like a real stalled connection.
func (e *Error) Timeout() bool { return e.Kind == KindPartition }

// IsInjected reports whether err is (or wraps) an injected fault.
func IsInjected(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}

// site is one armed injection point.
type site struct {
	name    string
	kind    Kind
	latency time.Duration
	// threshold gates firing: the site fires when the next value of its
	// seeded stream is below it. ^uint64(0) means every call.
	threshold uint64
	seed      uint64
	limited   bool   // remaining is a budget (a '#count' was given)
	err       *Error // preallocated; also the panic value

	calls     atomic.Uint64 // per-site call counter; the stream position
	remaining atomic.Int64  // fires left when limited (may go negative)
	fired     atomic.Uint64
}

// Profile is a parsed set of armed sites. A Profile is immutable after
// Parse except for the per-site counters.
type Profile struct {
	seed  uint64
	sites map[string]*site
	spec  string
}

// String returns the spec the profile was parsed from.
func (p *Profile) String() string { return p.spec }

// active is the installed profile; nil when injection is disabled. One
// atomic load is the entire disabled-path cost.
var active atomic.Pointer[Profile]

// Enable installs the profile, replacing any previous one. A nil
// profile disables injection (same as Disable).
func Enable(p *Profile) { active.Store(p) }

// Disable deactivates fault injection.
func Disable() { active.Store(nil) }

// Active returns the installed profile, or nil.
func Active() *Profile { return active.Load() }

// Enabled reports whether a fault profile is active.
//
//rmq:hotpath
func Enabled() bool { return active.Load() != nil }

// Check consults the site and returns its injected error when it fires
// (nil otherwise). KindPanic sites panic with an *Error instead;
// KindLatency sites sleep and return nil. Filesystem-only kinds
// (partial, torn) behave like KindENOSPC/no-op here — their tearing
// semantics live in the fs wrappers, which give them the data to tear.
//
// The disabled path — no profile, or a profile without this site — is
// one atomic load plus a map probe and never allocates.
//
//rmq:hotpath
func Check(name string) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	s := p.sites[name]
	if s == nil || !s.fire() {
		return nil
	}
	switch s.kind {
	case KindPanic:
		panic(s.err)
	case KindLatency, KindSlowPeer:
		time.Sleep(s.latency)
		return nil
	case KindTorn:
		// Tearing needs file contents; at a plain call site it degrades
		// to a no-op rather than inventing a failure the spec did not ask
		// for at this kind of site.
		return nil
	default:
		return s.err
	}
}

// lookup returns the armed site for name, or nil, without advancing any
// counter. The fs wrappers use it to apply kind-specific semantics.
func lookup(name string) *site {
	p := active.Load()
	if p == nil {
		return nil
	}
	return p.sites[name]
}

// fire advances the site's deterministic stream and reports whether
// this call fails. It never allocates.
//
//rmq:hotpath
func (s *site) fire() bool {
	n := s.calls.Add(1)
	if s.threshold != ^uint64(0) && splitmix64(s.seed+n) >= s.threshold {
		return false
	}
	if s.limited && s.remaining.Add(-1) < 0 {
		return false
	}
	s.fired.Add(1)
	return true
}

// Fired returns how many times the named site has fired under the
// active profile (0 when inactive or unknown) — chaos runs and tests
// use it to bound observed error rates against injected ones.
func Fired(name string) uint64 {
	if s := lookup(name); s != nil {
		return s.fired.Load()
	}
	return 0
}

// Stats returns the fire counts of every armed site of the active
// profile, keyed by site name; nil when injection is disabled.
func Stats() map[string]uint64 {
	p := active.Load()
	if p == nil {
		return nil
	}
	out := make(map[string]uint64, len(p.sites))
	for name, s := range p.sites {
		out[name] = s.fired.Load()
	}
	return out
}

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche mix
// turning the per-site counter into a uniform stream.
//
//rmq:hotpath
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// fnv1a hashes a site name for per-site stream separation.
func fnv1a(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// Parse compiles a profile spec (see the package documentation for the
// grammar). An empty spec yields a nil profile (injection disabled).
func Parse(spec string) (*Profile, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	p := &Profile{seed: 1, sites: make(map[string]*site), spec: spec}
	var entries []string
	for _, e := range strings.Split(spec, ";") {
		if e = strings.TrimSpace(e); e != "" {
			entries = append(entries, e)
		}
	}
	// Seed first, regardless of position: site stream seeds derive from it.
	rest := entries[:0]
	for _, e := range entries {
		if v, ok := strings.CutPrefix(e, "seed="); ok {
			seed, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad seed %q: %v", v, err)
			}
			p.seed = seed
			continue
		}
		rest = append(rest, e)
	}
	for _, e := range rest {
		s, err := parseSite(e, p.seed)
		if err != nil {
			return nil, err
		}
		if _, dup := p.sites[s.name]; dup {
			return nil, fmt.Errorf("faultinject: site %q specified twice", s.name)
		}
		p.sites[s.name] = s
	}
	if len(p.sites) == 0 {
		return nil, fmt.Errorf("faultinject: profile %q names no sites", spec)
	}
	return p, nil
}

// MustParse is Parse for tests and trusted literals; it panics on error.
func MustParse(spec string) *Profile {
	p, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return p
}

// parseSite compiles one "site=kind[:arg][@rate][#count]" entry.
func parseSite(entry string, seed uint64) (*site, error) {
	name, rhs, ok := strings.Cut(entry, "=")
	name = strings.TrimSpace(name)
	if !ok || name == "" || rhs == "" {
		return nil, fmt.Errorf("faultinject: bad entry %q (want site=kind[:arg][@rate][#count])", entry)
	}
	s := &site{name: name, threshold: ^uint64(0), seed: splitmix64(seed ^ fnv1a(name))}
	if i := strings.IndexByte(rhs, '#'); i >= 0 {
		count, err := strconv.ParseUint(rhs[i+1:], 10, 63)
		if err != nil {
			return nil, fmt.Errorf("faultinject: %s: bad count %q: %v", name, rhs[i+1:], err)
		}
		s.limited = true
		s.remaining.Store(int64(count))
		rhs = rhs[:i]
	}
	if i := strings.IndexByte(rhs, '@'); i >= 0 {
		rate, err := strconv.ParseFloat(rhs[i+1:], 64)
		if err != nil || rate <= 0 || rate > 1 {
			return nil, fmt.Errorf("faultinject: %s: bad rate %q (want a float in (0, 1])", name, rhs[i+1:])
		}
		if rate < 1 {
			s.threshold = uint64(rate * float64(1<<63) * 2)
		}
		rhs = rhs[:i]
	}
	kindName, arg, _ := strings.Cut(rhs, ":")
	switch kindName {
	case "error":
		s.kind = KindError
	case "panic":
		s.kind = KindPanic
	case "enospc":
		s.kind = KindENOSPC
	case "partial":
		s.kind = KindPartial
	case "torn":
		s.kind = KindTorn
	case "conn-refused":
		s.kind = KindConnRefused
	case "partition":
		s.kind = KindPartition
	case "latency", "slow-peer":
		s.kind = KindLatency
		if kindName == "slow-peer" {
			s.kind = KindSlowPeer
		}
		d, err := time.ParseDuration(arg)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("faultinject: %s: %s needs a duration argument (got %q)", name, kindName, arg)
		}
		s.latency = d
	default:
		return nil, fmt.Errorf("faultinject: %s: unknown kind %q", name, kindName)
	}
	if s.kind != KindLatency && s.kind != KindSlowPeer && arg != "" {
		return nil, fmt.Errorf("faultinject: %s: kind %s takes no argument (got %q)", name, kindName, arg)
	}
	s.err = &Error{Site: name, Kind: s.kind}
	return s, nil
}

// Arm activates the fault profile spec, or the one in the RMQ_FAULTS
// environment variable when spec is empty, and returns the active
// profile's spec ("" when neither names one). cmd/rmqd and
// cmd/rmqrouter call it at startup with their -faults flag, so chaos
// jobs can arm a process through either its command line or its
// environment.
func Arm(spec string) (string, error) {
	if spec == "" {
		spec = os.Getenv("RMQ_FAULTS")
	}
	p, err := Parse(spec)
	if err != nil {
		return "", err
	}
	if p != nil {
		Enable(p)
		return p.spec, nil
	}
	return "", nil
}
