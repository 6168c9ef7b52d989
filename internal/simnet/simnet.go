// Package simnet binds protocol nodes (internal/node) to the discrete-event
// engine (internal/eventsim) and the simulated underlay (internal/underlay).
//
// A World owns one or more shard domains. Each Domain has its own engine,
// underlay network, address pool, and RNG streams; nodes spawned in a domain
// live entirely on that domain's event loop. A single-domain world (NewWorld)
// behaves exactly like the classic one-engine simulator and exposes the
// engine and network directly. A sharded world (NewShardedWorld) partitions
// the synthetic internet by ISP — the paper's locality structure becomes the
// unit of parallelism — and runs the domains in conservative lockstep
// windows whose lookahead is the minimum cross-domain underlay latency:
// intra-ISP traffic (the vast majority, which is the paper's whole point)
// never crosses a shard, and cross-domain datagrams are exchanged at window
// barriers, always arriving at least one lookahead after they were sent.
//
// With CodecCheck enabled, every datagram is round-tripped through the wire
// codec before delivery, proving the simulation exchanges exactly what the
// real protocol would put on the wire (integration tests enable this; large
// experiments skip it for speed — sizes are always computed from the codec
// either way).
package simnet

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"pplivesim/internal/asnmap"
	"pplivesim/internal/eventsim"
	"pplivesim/internal/ipam"
	"pplivesim/internal/isp"
	"pplivesim/internal/node"
	"pplivesim/internal/underlay"
	"pplivesim/internal/wire"
)

// World wires together engines, underlays, and the address plan.
type World struct {
	// Engine and Network are the single-domain fast path: for worlds built
	// with NewWorld/NewWorldConfig they alias domain 0's engine and network,
	// preserving the classic one-engine API. They are nil for sharded
	// worlds, whose callers go through Domains.
	Engine   *eventsim.Engine
	Network  *underlay.Network
	Registry *asnmap.Registry

	// CodecCheck round-trips every datagram through the wire codec before
	// delivery, failing loudly on any encode/decode mismatch.
	CodecCheck bool

	domains   []*Domain
	router    *router
	lookahead time.Duration

	// infra is the dedicated infrastructure domain of a scaled partition
	// (Shards > DefaultShards); nil otherwise.
	infra *Domain
	// floors holds the per-(src,dst)-domain synthetic minimum wire latency of
	// a scaled partition, indexed src*len(domains)+dst; nil for legacy and
	// single-domain worlds (whose trajectories must stay bit-identical).
	floors []time.Duration
	// barrierHooks run single-threaded after every window-barrier flush.
	barrierHooks []func()

	// buildRand drives single-threaded build-time draws (arrival schedules);
	// it belongs to no domain so build plans don't perturb domain streams.
	buildRand *rand.Rand

	// pools is the single-domain world's lazy per-category allocator.
	pools map[isp.ISP]*ipam.Pool
}

// Domain is one shard: an engine, an underlay network, and an address range.
type Domain struct {
	id    int
	name  string
	cat   isp.ISP // zero for the single-domain world and the infra domain
	world *World
	eng   *eventsim.Engine
	net   *underlay.Network
	pool  *ipam.Pool // nil for the single-domain world (uses World.pools)
	// pools is the infrastructure domain's per-category allocator: unlike
	// every other sharded domain it hosts several ISP categories (trackers
	// and bootstrap for each), carved as small tail blocks out of the
	// categories' address ranges.
	pools map[isp.ISP]*ipam.Pool
	envs  int // spawned envs (diagnostics)
}

// mixSeed derives a decorrelated per-domain seed from the world seed
// (splitmix64 finalizer).
func mixSeed(seed int64, salt int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(salt+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// NewWorld builds a single-domain world with the default underlay
// configuration and the synthetic internet address plan.
func NewWorld(seed int64) *World {
	return NewWorldConfig(seed, underlay.DefaultConfig())
}

// NewWorldConfig builds a single-domain world with a custom underlay
// configuration.
func NewWorldConfig(seed int64, cfg underlay.Config) *World {
	eng := eventsim.New(seed)
	net := underlay.New(eng, cfg)
	w := &World{
		Engine:    eng,
		Network:   net,
		Registry:  asnmap.SyntheticInternet(),
		buildRand: rand.New(rand.NewSource(mixSeed(seed, buildSalt))),
		pools:     make(map[isp.ISP]*ipam.Pool),
	}
	w.domains = []*Domain{{id: 0, name: "all", world: w, eng: eng, net: net}}
	return w
}

// buildSalt decorrelates the build-time RNG from per-domain engine seeds.
const buildSalt = 0x6275696c64 // "build"

// NewShardedWorld builds an ISP-partitioned world with the default underlay
// configuration. TELE — over half the paper's population — is split into two
// sub-domains along its prefix list so no single shard dominates the run.
func NewShardedWorld(seed int64) *World {
	return NewShardedWorldConfig(seed, underlay.DefaultConfig())
}

// NewShardedWorldConfig builds an ISP-partitioned world with a custom
// underlay configuration.
func NewShardedWorldConfig(seed int64, cfg underlay.Config) *World {
	return NewShardedWorldConfigN(seed, cfg, DefaultShards)
}

// NewShardedWorldN builds a sharded world with the default underlay
// configuration and the given partition degree (see NewShardedWorldConfigN).
func NewShardedWorldN(seed int64, shards int) *World {
	return NewShardedWorldConfigN(seed, underlay.DefaultConfig(), shards)
}

// NewShardedWorldConfigN builds a sharded world with shards domains. Any
// value up to DefaultShards produces the legacy six-domain ISP partition,
// bit-identical to NewShardedWorldConfig — the pinned golden digests depend
// on this. Values above DefaultShards engage the scaled partition: TELE is
// split into shards-5 sub-shards by address range (ipam.SplitEvenly over its
// prefix list), the remaining four categories keep one domain each, and a
// dedicated infrastructure domain hosts bootstrap/tracker/source addresses
// carved as small tail blocks out of the TELE/CNC/CER ranges. Scaled
// partitions install synthetic per-pair latency floors (see
// underlay.SetRemoteFloor): cross-sub-shard intra-ISP traffic is floored at
// the category's IntraOWD and infrastructure pairs at twice TELE's, so the
// conservative lookahead rises from the natural cross-pair minimum to the
// intra-ISP base OWD, roughly halving the number of barrier windows.
func NewShardedWorldConfigN(seed int64, cfg underlay.Config, shards int) *World {
	reg := asnmap.SyntheticInternet()
	w := &World{
		Registry:  reg,
		buildRand: rand.New(rand.NewSource(mixSeed(seed, buildSalt))),
	}
	type part struct {
		name     string
		cat      isp.ISP
		prefixes []ipam.Prefix
		infra    map[isp.ISP][]ipam.Prefix // per-category pools; infra domain only
	}
	var parts []part
	infraIdx := -1
	if shards <= DefaultShards {
		// Legacy partition: five ISP categories with TELE halved along its
		// prefix list. This construction must stay byte-identical — every
		// pinned golden digest runs through it.
		for _, cat := range isp.All() {
			prefixes := reg.PrefixesFor(cat)
			if cat == isp.TELE && len(prefixes) >= 2 {
				half := (len(prefixes) + 1) / 2
				parts = append(parts,
					part{name: "TELE-0", cat: cat, prefixes: prefixes[:half]},
					part{name: "TELE-1", cat: cat, prefixes: prefixes[half:]})
				continue
			}
			parts = append(parts, part{name: cat.String(), cat: cat, prefixes: prefixes})
		}
	} else {
		kTele := shards - 5 // four single-category domains + infra
		infraPools := make(map[isp.ISP][]ipam.Prefix)
		for _, cat := range isp.All() {
			prefixes := reg.PrefixesFor(cat)
			// Reserve a tail block for infrastructure services in the
			// categories that host them (bootstrap and the tracker groups:
			// TELE, CNC, CER). The carve partitions the space exactly, so
			// viewer pools and the infra pool can never collide.
			switch cat {
			case isp.TELE, isp.CNC, isp.CER:
				if main, tail, ok := ipam.CarveTail(prefixes, infraCarveBits); ok {
					prefixes = main
					infraPools[cat] = []ipam.Prefix{tail}
				}
			}
			if cat == isp.TELE {
				for i, group := range ipam.SplitEvenly(prefixes, kTele) {
					parts = append(parts, part{name: fmt.Sprintf("TELE-%d", i), cat: cat, prefixes: group})
				}
				continue
			}
			parts = append(parts, part{name: cat.String(), cat: cat, prefixes: prefixes})
		}
		infraIdx = len(parts)
		parts = append(parts, part{name: "INFRA", infra: infraPools})
	}
	rt := &router{world: w, trie: ipam.NewTrie()}
	for id, p := range parts {
		eng := eventsim.New(mixSeed(seed, id))
		net := underlay.New(eng, cfg)
		net.SetRouter(rt, id)
		d := &Domain{
			id:    id,
			name:  p.name,
			cat:   p.cat,
			world: w,
			eng:   eng,
			net:   net,
		}
		if p.infra != nil {
			d.pools = make(map[isp.ISP]*ipam.Pool)
			for _, cat := range isp.All() {
				pfxs, ok := p.infra[cat]
				if !ok {
					continue
				}
				d.pools[cat] = ipam.NewPool(pfxs...)
				for _, pfx := range pfxs {
					rt.addRoute(pfx, id, cat)
				}
			}
		} else {
			d.pool = ipam.NewPool(p.prefixes...)
			for _, pfx := range p.prefixes {
				rt.addRoute(pfx, id, p.cat)
			}
		}
		w.domains = append(w.domains, d)
	}
	if infraIdx >= 0 {
		w.infra = w.domains[infraIdx]
	}
	n := len(w.domains)
	rt.boxes = make([][]xmsg, n*n)
	w.router = rt

	if w.infra == nil {
		// Conservative lookahead: the smallest one-way delay any cross-domain
		// host pair can see. MinPairOWD uses the identical float expression as
		// the per-pair multiplier, so this is an exact lower bound — a datagram
		// sent at t to another shard can never arrive before t+lookahead.
		for i, a := range w.domains {
			for j, b := range w.domains {
				if i == j {
					continue
				}
				if m := cfg.MinPairOWD(a.cat, b.cat); w.lookahead == 0 || m < w.lookahead {
					w.lookahead = m
				}
			}
		}
		return w
	}

	// Scaled partition: install the synthetic latency floors and derive the
	// lookahead from them. Same-category sub-shard pairs are floored at the
	// category's base IntraOWD (a cross-sub-shard peer can never look closer
	// than the intra-ISP base), and every pair touching the infrastructure
	// domain at twice TELE's IntraOWD (bootstrap/tracker RPCs are not
	// latency-critical, and the wide floor keeps infra traffic off the
	// lookahead-critical path).
	infraFloor := 2 * cfg.IntraOWD[isp.TELE]
	w.floors = make([]time.Duration, n*n)
	for i, a := range w.domains {
		for j, b := range w.domains {
			if i == j {
				continue
			}
			switch {
			case a == w.infra || b == w.infra:
				w.floors[i*n+j] = infraFloor
			case a.cat == b.cat:
				w.floors[i*n+j] = cfg.IntraOWD[a.cat]
			}
		}
	}
	for _, d := range w.domains {
		src := d.id
		d.net.SetRemoteFloor(func(dst int) time.Duration { return w.floors[src*n+dst] })
	}
	// Every cross-domain arrival is bounded below by max(natural pair
	// minimum, floor); infra pairs rely on the floor alone because the
	// infra domain spans several host categories.
	for i, a := range w.domains {
		for j, b := range w.domains {
			if i == j {
				continue
			}
			bound := w.floors[i*n+j]
			if a != w.infra && b != w.infra {
				if m := cfg.MinPairOWD(a.cat, b.cat); m > bound {
					bound = m
				}
			}
			if w.lookahead == 0 || bound < w.lookahead {
				w.lookahead = bound
			}
		}
	}
	return w
}

// DefaultShards is the number of domains a sharded world partitions into
// (the five ISP categories with TELE split in two).
const DefaultShards = 6

// infraCarveBits is the prefix length of the tail block reserved per category
// for the scaled partition's infrastructure domain (/20 ≈ 4k addresses —
// bootstrap, tracker groups, and sources need a few dozen).
const infraCarveBits = 20

// Domains returns every shard domain in id order.
func (w *World) Domains() []*Domain { return w.domains }

// DomainsOf returns the domains holding the given ISP category, in id order.
// Single-domain worlds return the sole domain for every category.
func (w *World) DomainsOf(category isp.ISP) []*Domain {
	if w.router == nil {
		return w.domains
	}
	var out []*Domain
	for _, d := range w.domains {
		if d.cat == category {
			out = append(out, d)
		}
	}
	return out
}

// Lookahead returns the conservative synchronization window of a sharded
// world (zero for single-domain worlds).
func (w *World) Lookahead() time.Duration { return w.lookahead }

// InfraDomain returns the domain that should host infrastructure services
// (bootstrap, trackers, sources) whose addresses belong to the given
// category: the dedicated infrastructure domain of a scaled partition when
// one exists, otherwise the first domain of the category.
func (w *World) InfraDomain(category isp.ISP) *Domain {
	if w.infra != nil {
		return w.infra
	}
	return w.DomainsOf(category)[0]
}

// OnBarrier registers fn to run single-threaded at every window barrier of a
// sharded run, after the cross-domain mailboxes have been drained. Scenario
// code uses this to fold per-domain telemetry aggregates without locking.
// Single-domain worlds never invoke the hooks (they have no barriers).
func (w *World) OnBarrier(fn func()) { w.barrierHooks = append(w.barrierHooks, fn) }

// BuildRand returns the world's build-time RNG for single-threaded scenario
// assembly (arrival schedules and the like). It is decorrelated from every
// domain's event-time streams.
func (w *World) BuildRand() *rand.Rand { return w.buildRand }

// Run executes the world to the horizon. For sharded worlds, workers is the
// number of goroutines executing synchronization windows: values below 2 run
// everything on the calling goroutine. The trajectory — every event, draw,
// and delivery — is identical for any worker count, because the window
// schedule and cross-domain exchange order are pure functions of barrier
// state.
func (w *World) Run(horizon time.Duration, workers int) error {
	if w.router == nil {
		return w.Engine.Run(horizon)
	}
	engines := make([]*eventsim.Engine, len(w.domains))
	for i, d := range w.domains {
		engines[i] = d.eng
	}
	flush := w.router.flush
	if len(w.barrierHooks) > 0 {
		hooks := w.barrierHooks
		flush = func() {
			w.router.flush()
			for _, fn := range hooks {
				fn()
			}
		}
	}
	g := &eventsim.Group{
		Engines:   engines,
		Lookahead: w.lookahead,
		Workers:   workers,
		Flush:     flush,
	}
	return g.Run(horizon)
}

// Now returns the current virtual time (domains agree between windows and
// after Run).
func (w *World) Now() time.Duration { return w.domains[0].eng.Now() }

// EventsProcessed sums executed events across domains.
func (w *World) EventsProcessed() uint64 {
	var total uint64
	for _, d := range w.domains {
		total += d.eng.Processed()
	}
	return total
}

// NetStats sums the underlay delivery counters across domains.
func (w *World) NetStats() (delivered, droppedLoss, droppedQueue, droppedNoHost uint64) {
	for _, d := range w.domains {
		de, lo, qu, no := d.net.Stats()
		delivered += de
		droppedLoss += lo
		droppedQueue += qu
		droppedNoHost += no
	}
	return
}

// LookupHost finds an attached host by address in any domain.
func (w *World) LookupHost(addr netip.Addr) (*underlay.Host, bool) {
	for _, d := range w.domains {
		if h, ok := d.net.Lookup(addr); ok {
			return h, true
		}
	}
	return nil, false
}

// ID returns the domain's shard index.
func (d *Domain) ID() int { return d.id }

// Name returns the domain's display name (ISP category, with TELE-0/TELE-1
// for the split).
func (d *Domain) Name() string { return d.name }

// Category returns the domain's ISP category (zero for the single-domain
// world).
func (d *Domain) Category() isp.ISP { return d.cat }

// Engine returns the domain's event engine.
func (d *Domain) Engine() *eventsim.Engine { return d.eng }

// Network returns the domain's underlay network.
func (d *Domain) Network() *underlay.Network { return d.net }

// At schedules fn on this domain's engine at the absolute virtual time at.
func (d *Domain) At(at time.Duration, fn func()) { d.eng.At(at, fn) }

// After schedules fn on this domain's engine after delay dl.
func (d *Domain) After(dl time.Duration, fn func()) { d.eng.After(dl, fn) }

// AllocAddr allocates a fresh address in the given ISP category.
func (w *World) AllocAddr(category isp.ISP) (netip.Addr, error) {
	return w.domains[0].allocAddr(category)
}

func (d *Domain) allocAddr(category isp.ISP) (netip.Addr, error) {
	if d.pools != nil {
		pool, ok := d.pools[category]
		if !ok {
			return netip.Addr{}, fmt.Errorf("simnet: domain %s has no %s infrastructure block", d.name, category)
		}
		addr, err := pool.Alloc()
		if err != nil {
			return netip.Addr{}, fmt.Errorf("alloc %s infrastructure address: %w", category, err)
		}
		return addr, nil
	}
	if d.pool != nil {
		if category != d.cat {
			return netip.Addr{}, fmt.Errorf("simnet: domain %s cannot allocate %s address", d.name, category)
		}
		addr, err := d.pool.Alloc()
		if err != nil {
			return netip.Addr{}, fmt.Errorf("alloc %s address: %w", category, err)
		}
		return addr, nil
	}
	w := d.world
	pool, ok := w.pools[category]
	if !ok {
		var err error
		pool, err = w.Registry.PoolFor(category)
		if err != nil {
			return netip.Addr{}, err
		}
		w.pools[category] = pool
	}
	addr, err := pool.Alloc()
	if err != nil {
		return netip.Addr{}, fmt.Errorf("alloc %s address: %w", category, err)
	}
	return addr, nil
}

// HostSpec configures a spawned node's host.
type HostSpec struct {
	ISP       isp.ISP
	UploadBps float64       // access uplink capacity, bytes/sec
	ProcDelay time.Duration // per-datagram application processing delay
}

// Spawn allocates an address, attaches a host, and returns the node's
// environment. On a single-domain world any category spawns in the sole
// domain; sharded callers use Domain.Spawn. The handler may be installed
// later via SetHandler (services typically construct themselves around the
// env).
func (w *World) Spawn(spec HostSpec) (*Env, error) {
	return w.domains[0].Spawn(spec)
}

// SpawnAt attaches a host at a specific address (which must belong to the
// registry so analysis can resolve it).
func (w *World) SpawnAt(addr netip.Addr, spec HostSpec) (*Env, error) {
	return w.domains[0].SpawnAt(addr, spec)
}

// Spawn allocates an address in this domain and attaches a host.
func (d *Domain) Spawn(spec HostSpec) (*Env, error) {
	addr, err := d.allocAddr(spec.ISP)
	if err != nil {
		return nil, err
	}
	return d.SpawnAt(addr, spec)
}

// SpawnAt attaches a host at a specific address in this domain.
func (d *Domain) SpawnAt(addr netip.Addr, spec HostSpec) (*Env, error) {
	host := &underlay.Host{
		Addr:      addr,
		ISP:       spec.ISP,
		UploadBps: spec.UploadBps,
		ProcDelay: spec.ProcDelay,
	}
	env := &Env{domain: d, host: host, rng: d.eng.NewRand()}
	if err := d.net.Attach(host, env.deliver); err != nil {
		return nil, err
	}
	d.envs++
	return env, nil
}

// xmsg is one cross-domain datagram parked between synchronization windows.
type xmsg struct {
	arrival time.Duration
	from    netip.Addr
	to      netip.Addr
	size    int
	payload any
}

// router implements underlay.Router over the world's domain partition.
// Destination domains are a pure function of the address prefix (the trie is
// read-only after construction), so concurrent Resolve calls from different
// shard workers are safe and worker-count invariant. Each (src,dst) mailbox
// has exactly one writer — src's worker — during a window, and is drained
// single-threaded by flush at the barrier.
type router struct {
	world *World
	trie  *ipam.Trie
	// entries maps trie labels to (domain, host ISP category). The
	// indirection exists for the infrastructure domain, which hosts several
	// categories — a destination's ISP can no longer be read off its owning
	// domain.
	entries []routeEntry
	boxes   [][]xmsg // indexed src*len(domains)+dst
}

type routeEntry struct {
	dom int
	cat isp.ISP
}

// addRoute registers a prefix as belonging to domain dom with hosts of the
// given ISP category.
func (r *router) addRoute(pfx ipam.Prefix, dom int, cat isp.ISP) {
	r.trie.Insert(pfx, len(r.entries))
	r.entries = append(r.entries, routeEntry{dom: dom, cat: cat})
}

// Resolve implements underlay.Router.
func (r *router) Resolve(to netip.Addr) (underlay.Remote, bool) {
	label, ok := r.trie.Lookup(to)
	if !ok {
		return underlay.Remote{}, false
	}
	e := r.entries[label]
	return underlay.Remote{Domain: e.dom, ISP: e.cat}, true
}

// Forward implements underlay.Router.
func (r *router) Forward(srcDomain, dstDomain int, arrival time.Duration, from, to netip.Addr, size int, payload any) {
	box := &r.boxes[srcDomain*len(r.world.domains)+dstDomain]
	*box = append(*box, xmsg{arrival: arrival, from: from, to: to, size: size, payload: payload})
}

// flush drains every mailbox into its destination domain. It runs
// single-threaded at each window barrier; the fixed (dst, src) drain order
// makes the injection sequence — and therefore event seq tie-breaks — a pure
// function of window state, independent of the worker count.
func (r *router) flush() {
	n := len(r.world.domains)
	for dst := 0; dst < n; dst++ {
		net := r.world.domains[dst].net
		for src := 0; src < n; src++ {
			box := &r.boxes[src*n+dst]
			for i := range *box {
				m := &(*box)[i]
				net.Inject(m.arrival, m.from, m.to, m.size, m.payload)
				m.payload = nil
			}
			*box = (*box)[:0]
		}
	}
}

// Env implements node.Env over the simulated world.
type Env struct {
	domain  *Domain
	host    *underlay.Host
	rng     *rand.Rand
	handler node.Handler

	// Taps observe every datagram into/out of this node (the capture
	// package uses them as its Wireshark equivalent).
	recvTaps []Tap
	sendTaps []Tap

	closed bool
}

var _ node.Env = (*Env)(nil)

// Tap observes a datagram at a node boundary.
type Tap func(peer netip.Addr, msg wire.Message, size int)

// Addr implements node.Env.
func (e *Env) Addr() netip.Addr { return e.host.Addr }

// ISP returns the host's ISP category.
func (e *Env) ISP() isp.ISP { return e.host.ISP }

// Host exposes the underlying underlay host (for stats).
func (e *Env) Host() *underlay.Host { return e.host }

// Domain returns the shard domain the node lives in.
func (e *Env) Domain() *Domain { return e.domain }

// Now implements node.Env.
func (e *Env) Now() time.Duration { return e.domain.eng.Now() }

// Rand implements node.Env.
func (e *Env) Rand() *rand.Rand { return e.rng }

// After implements node.Env.
func (e *Env) After(d time.Duration, fn func()) node.Cancel {
	t := e.domain.eng.After(d, func() {
		if !e.closed {
			fn()
		}
	})
	return t.Stop
}

// Every implements node.Env. The periodic timer self-cancels once the env
// closes, so departed nodes do not keep feeding the event queue.
func (e *Env) Every(d time.Duration, fn func()) node.Cancel {
	var t eventsim.Timer
	t = e.domain.eng.Every(d, func() {
		if e.closed {
			t.Stop()
			return
		}
		fn()
	})
	return t.Stop
}

// UplinkBacklog implements node.Env.
func (e *Env) UplinkBacklog() time.Duration {
	return e.host.QueueDelay(e.domain.eng.Now())
}

// SetHandler installs the node's message handler.
func (e *Env) SetHandler(h node.Handler) { e.handler = h }

// TapRecv registers an observer for delivered datagrams.
func (e *Env) TapRecv(t Tap) { e.recvTaps = append(e.recvTaps, t) }

// TapSend registers an observer for outgoing datagrams.
func (e *Env) TapSend(t Tap) { e.sendTaps = append(e.sendTaps, t) }

// Send implements node.Env.
func (e *Env) Send(to netip.Addr, msg wire.Message) {
	if e.closed {
		return
	}
	size, payload := e.domain.world.encode(msg)
	for _, tap := range e.sendTaps {
		tap(to, msg, size)
	}
	e.domain.net.Send(e.host, to, size, payload)
}

// deliver is the underlay handler for this node.
func (e *Env) deliver(from netip.Addr, size int, payload any) {
	if e.closed {
		return
	}
	msg := WireMessage(payload, e.host.Addr)
	for _, tap := range e.recvTaps {
		tap(from, msg, size)
	}
	if e.handler != nil {
		e.handler.HandleMessage(from, msg)
	}
}

// Close detaches the node from the network and disarms its timers. It is
// idempotent.
func (e *Env) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.domain.net.Detach(e.host.Addr)
	e.domain.envs--
}

// Closed reports whether the env has been closed.
func (e *Env) Closed() bool { return e.closed }

// encode returns a message's on-the-wire size and the payload to deliver:
// the message itself, or with CodecCheck its decoded wire round trip.
func (w *World) encode(msg wire.Message) (int, any) {
	size := wire.Size(msg)
	if !w.CodecCheck {
		return size, msg
	}
	decoded, err := wire.Unmarshal(wire.Marshal(msg))
	if err != nil {
		panic(fmt.Sprintf("simnet: codec check failed for %s: %v", msg.Kind(), err))
	}
	return size, decoded
}

// WireMessage returns a delivered payload as the wire message it carries.
// Every simnet sender delivers wire messages, so anything else is a bug and
// panics; to names the receiving host in the panic.
func WireMessage(payload any, to netip.Addr) wire.Message {
	msg, ok := payload.(wire.Message)
	if !ok {
		panic(fmt.Sprintf("simnet: non-wire payload %T delivered to %s", payload, to))
	}
	return msg
}

// The helpers below serve callers that keep hosts in their own flat storage
// instead of one Env per node: flow-fidelity swarms hold their members'
// underlay.Host values in row slabs and re-attach a row for each new tenant.

// AllocAddr allocates a fresh address in this domain for the given ISP
// category.
func (d *Domain) AllocAddr(category isp.ISP) (netip.Addr, error) {
	return d.allocAddr(category)
}

// AttachHost attaches a caller-owned host to this domain's network with the
// given receive handler. The host may be one detached earlier; datagrams
// still in flight to its previous attachment are dropped, not delivered.
func (d *Domain) AttachHost(h *underlay.Host, handler underlay.Handler) error {
	if err := d.net.Attach(h, handler); err != nil {
		return err
	}
	d.envs++
	return nil
}

// DetachHost detaches a host attached with AttachHost.
func (d *Domain) DetachHost(h *underlay.Host) {
	d.net.Detach(h.Addr)
	d.envs--
}

// SendFrom transmits a message from an attached host, with the same codec
// check Env.Send applies.
func (d *Domain) SendFrom(h *underlay.Host, to netip.Addr, msg wire.Message) {
	size, payload := d.world.encode(msg)
	d.net.Send(h, to, size, payload)
}
