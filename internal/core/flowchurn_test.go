package core

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"pplivesim/internal/isp"
	"pplivesim/internal/node"
	"pplivesim/internal/peer"
	"pplivesim/internal/simnet"
	"pplivesim/internal/underlay"
	"pplivesim/internal/wire"
	"pplivesim/internal/workload"
)

// churnRig is one hand-built flow domain on a lossless single-domain world,
// with churn tuned so every churn call retires exactly one member and joins
// its replacement through the real port, slab and underlay.
type churnRig struct {
	world *simnet.World
	fd    *flowDomain
	now   time.Duration
}

func newChurnRig(tb testing.TB, members int) *churnRig {
	tb.Helper()
	cfg := underlay.DefaultConfig()
	cfg.LossIntra, cfg.LossInterDomestic, cfg.LossTransoceanic = 0, 0, 0
	w := simnet.NewWorldConfig(1, cfg)
	spec := workload.PopularSpec()
	fcfg := peer.DefaultFlowConfig(spec)
	// One expected departure per simulated second at full strength, and an
	// immediate replacement.
	fcfg.MeanSession = time.Duration(members) * time.Second
	fcfg.ReplacementDelay = 0
	fd := &flowDomain{
		ds:       &domainState{dom: w.Domains()[0], rng: rand.New(rand.NewSource(2))},
		category: isp.TELE,
		spec:     spec,
	}
	fd.spawn = fd.spawnMember
	swarm, err := peer.NewFlowSwarm(fcfg, fd, fd.ds.rng, nil, members)
	if err != nil {
		tb.Fatal(err)
	}
	fd.swarm = swarm
	for i := 0; i < members; i++ {
		fd.spawnMember()
	}
	return &churnRig{world: w, fd: fd}
}

// churn advances the clock one second, retires one random member and runs
// its replacement join.
func (r *churnRig) churn(tb testing.TB) {
	r.now += time.Second
	r.world.Engine.FastForward(r.now)
	r.fd.swarm.Tick(r.now)
	if !r.world.Engine.Step() {
		tb.Fatal("churn scheduled no replacement join")
	}
}

// TestFlowChurnZeroAlloc is the allocation gate on the member-hosting path:
// a departure (swarm retire, host detach) plus its replacement join (RNG
// draws, address, swarm row, slab host attach, respawn timer) allocates
// nothing once the slab, host index and event queue have warmed up.
func TestFlowChurnZeroAlloc(t *testing.T) {
	r := newChurnRig(t, 4096)
	for i := 0; i < 50_000; i++ {
		r.churn(t)
	}
	allocs := testing.AllocsPerRun(5000, func() { r.churn(t) })
	if allocs != 0 {
		t.Errorf("flow churn allocates %.2f objects/op, want 0", allocs)
	}
	if alive, rows := r.fd.swarm.Alive(), r.fd.swarm.Len(); alive != 4096 || rows != 4096 {
		t.Errorf("alive=%d rows=%d after churn, want 4096 and 4096 (rows recycled)", alive, rows)
	}
	if n := r.world.Network.NumHosts(); n != 4096 {
		t.Errorf("network holds %d hosts, want 4096", n)
	}
}

// TestFlowRowStaleTenantDropped sends a probe datagram to a flow member and
// retires the member before arrival; the replacement joins immediately,
// reusing the same row and slab host at a new address. The datagram must be
// dropped as droppedNoHost and never reach the new tenant.
func TestFlowRowStaleTenantDropped(t *testing.T) {
	r := newChurnRig(t, 1)
	probe, err := r.world.Spawn(simnet.HostSpec{ISP: isp.TELE, UploadBps: 1 << 20, ProcDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var pongs []netip.Addr
	probe.SetHandler(node.HandlerFunc(func(from netip.Addr, msg wire.Message) {
		if _, ok := msg.(*wire.Pong); ok {
			pongs = append(pongs, from)
		}
	}))
	// Send at the instant of the next churn, so the ping is in flight while
	// the member departs and its replacement joins.
	r.world.Engine.FastForward(r.now + time.Second)
	ch := r.fd.spec.Channel
	old := r.fd.row(0).host.Addr
	probe.Send(old, &wire.Ping{Channel: ch, Nonce: 1})
	_, _, _, noHost0 := r.world.NetStats()

	r.churn(t)
	if rows := r.fd.swarm.Len(); rows != 1 {
		t.Fatalf("replacement took a new row (%d rows), want row 0 reused", rows)
	}
	fresh := r.fd.row(0).host.Addr
	if fresh == old {
		t.Fatalf("replacement reused address %s", old)
	}
	if err := r.world.Engine.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(pongs) != 0 {
		t.Errorf("stale ping answered by %v", pongs)
	}
	if _, _, _, noHost := r.world.NetStats(); noHost != noHost0+1 {
		t.Errorf("droppedNoHost rose by %d, want 1", noHost-noHost0)
	}

	probe.Send(fresh, &wire.Ping{Channel: ch, Nonce: 2})
	if err := r.world.Engine.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(pongs) != 1 || pongs[0] != fresh {
		t.Errorf("pongs = %v, want one from the new tenant %s", pongs, fresh)
	}
}

// BenchmarkFlowChurn measures one member departure plus its replacement
// join through the real flow port, slab and underlay.
func BenchmarkFlowChurn(b *testing.B) {
	r := newChurnRig(b, 100_000)
	for i := 0; i < 200_000; i++ {
		r.churn(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		r.churn(b)
	}
}
