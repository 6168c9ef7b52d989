package underlay

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"pplivesim/internal/isp"
)

// TestHostIndexPageBoundary attaches hosts on both sides of a /24 boundary:
// each must resolve to itself, neighbours in the same page must not alias,
// and datagrams must reach both.
func TestHostIndexPageBoundary(t *testing.T) {
	eng, net := newTestNet(t)
	src := mkHost("58.32.7.1", isp.TELE)
	if err := net.Attach(src, nil); err != nil {
		t.Fatal(err)
	}
	got := map[netip.Addr]int{}
	addrs := []string{"58.32.0.254", "58.32.0.255", "58.32.1.0", "58.32.1.1"}
	for _, a := range addrs {
		h := mkHost(a, isp.TELE)
		if err := net.Attach(h, func(netip.Addr, int, any) { got[h.Addr]++ }); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range addrs {
		addr := netip.MustParseAddr(a)
		h, ok := net.Lookup(addr)
		if !ok || h.Addr != addr {
			t.Errorf("Lookup(%s) = %v, %v", a, h, ok)
		}
		net.Send(src, addr, 100, nil)
	}
	for _, a := range []string{"58.32.0.253", "58.32.1.2", "58.33.0.255"} {
		if _, ok := net.Lookup(netip.MustParseAddr(a)); ok {
			t.Errorf("Lookup(%s) found a host that was never attached", a)
		}
	}
	if net.hosts.pages != 3 {
		t.Errorf("pages = %d, want 3 (58.32.0/24, 58.32.1/24, 58.32.7/24)", net.hosts.pages)
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		if n := got[netip.MustParseAddr(a)]; n != 1 {
			t.Errorf("%s received %d datagrams, want 1", a, n)
		}
	}
}

// TestDetachUpdatesLookupAndNumHosts checks the index after Detach: the
// host is gone, its page neighbours are not, and repeated or unknown
// detaches change nothing.
func TestDetachUpdatesLookupAndNumHosts(t *testing.T) {
	_, net := newTestNet(t)
	for _, a := range []string{"58.32.0.1", "58.32.0.2", "58.32.0.3"} {
		if err := net.Attach(mkHost(a, isp.TELE), nil); err != nil {
			t.Fatal(err)
		}
	}
	gone := netip.MustParseAddr("58.32.0.2")
	net.Detach(gone)
	net.Detach(gone)
	net.Detach(netip.MustParseAddr("58.32.9.9"))
	if n := net.NumHosts(); n != 2 {
		t.Errorf("NumHosts = %d, want 2", n)
	}
	if _, ok := net.Lookup(gone); ok {
		t.Error("detached host still resolves")
	}
	for _, a := range []string{"58.32.0.1", "58.32.0.3"} {
		if _, ok := net.Lookup(netip.MustParseAddr(a)); !ok {
			t.Errorf("%s lost by a neighbour's detach", a)
		}
	}
	if err := net.Attach(mkHost("58.32.0.2", isp.TELE), nil); err != nil {
		t.Errorf("re-attach at a detached address: %v", err)
	}
}

// TestHostIndexFreesEmptyPage checks that a page leaves the table when its
// last host detaches, and that steady attach/detach churn across pages
// reuses freed pages instead of allocating.
func TestHostIndexFreesEmptyPage(t *testing.T) {
	_, net := newTestNet(t)
	for _, a := range []string{"58.32.0.1", "58.32.0.2", "58.32.1.1"} {
		if err := net.Attach(mkHost(a, isp.TELE), nil); err != nil {
			t.Fatal(err)
		}
	}
	net.Detach(netip.MustParseAddr("58.32.0.1"))
	if net.hosts.pages != 2 {
		t.Fatalf("pages = %d after a partial detach, want 2", net.hosts.pages)
	}
	net.Detach(netip.MustParseAddr("58.32.0.2"))
	if net.hosts.pages != 1 {
		t.Fatalf("pages = %d after emptying 58.32.0/24, want 1", net.hosts.pages)
	}
	if _, ok := net.Lookup(netip.MustParseAddr("58.32.1.1")); !ok {
		t.Fatal("removing a page lost a host in another page")
	}

	h := mkHost("58.32.2.1", isp.TELE)
	next := uint32(58<<24 | 32<<16 | 2<<8 | 1)
	allocs := testing.AllocsPerRun(1000, func() {
		// Move the host to a fresh page on every step: each detach empties
		// a page and each attach needs a new one.
		net.Detach(h.Addr)
		next += 256
		b := [4]byte{byte(next >> 24), byte(next >> 16), byte(next >> 8), byte(next)}
		h.Addr = netip.AddrFrom4(b)
		if err := net.Attach(h, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("attach/detach churn allocates %.1f objects/op, want 0", allocs)
	}
	if net.hosts.pages != 2 || net.NumHosts() != 2 {
		t.Errorf("pages = %d, hosts = %d after churn, want 2 and 2", net.hosts.pages, net.NumHosts())
	}
}

// TestHostIndexMatchesMap drives the paged index and a plain map through
// the same random attach/detach sequence over a few dense ranges and
// scattered pages, so probe runs collide, wrap and shift back on deletion.
func TestHostIndexMatchesMap(t *testing.T) {
	var tab hostTable
	ref := map[uint32]*Host{}
	rng := rand.New(rand.NewSource(3))
	key := func() uint32 {
		if rng.Intn(4) == 0 {
			return rng.Uint32() // scattered page
		}
		return uint32(rng.Intn(3))<<24 | uint32(rng.Intn(64*256)) // dense ranges
	}
	for step := 0; step < 200_000; step++ {
		k := key()
		if rng.Intn(2) == 0 {
			if ref[k] == nil {
				h := &Host{}
				tab.put(k, h)
				ref[k] = h
			}
		} else if got, want := tab.del(k), ref[k]; got != want {
			t.Fatalf("step %d: del(%#x) = %p, want %p", step, k, got, want)
		} else {
			delete(ref, k)
		}
		if step%1000 == 0 {
			for k, h := range ref {
				if tab.get(k) != h {
					t.Fatalf("step %d: get(%#x) lost its host", step, k)
				}
			}
		}
	}
	if tab.n != len(ref) {
		t.Errorf("table holds %d hosts, map %d", tab.n, len(ref))
	}
	for k := range ref {
		tab.del(k)
	}
	if tab.n != 0 || tab.pages != 0 {
		t.Errorf("emptied table still has %d hosts in %d pages", tab.n, tab.pages)
	}
}

// TestStaleTenantDropped reuses one Host value for two tenants: a datagram
// in flight to the first, detached and re-attached at a new address before
// arrival, must count as droppedNoHost and never reach the second tenant's
// handler, while the second tenant's own traffic still arrives.
func TestStaleTenantDropped(t *testing.T) {
	eng, net := newTestNet(t)
	src := mkHost("58.32.0.1", isp.TELE)
	if err := net.Attach(src, nil); err != nil {
		t.Fatal(err)
	}
	row := mkHost("58.32.0.2", isp.TELE)
	var got []any
	handler := func(_ netip.Addr, _ int, payload any) { got = append(got, payload) }
	if err := net.Attach(row, handler); err != nil {
		t.Fatal(err)
	}
	net.Send(src, row.Addr, 100, "for the old tenant")
	net.Detach(row.Addr)
	row.Addr = netip.MustParseAddr("58.32.0.3")
	if err := net.Attach(row, handler); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("new tenant received %v", got)
	}
	if delivered, _, _, noHost := net.Stats(); delivered != 0 || noHost != 1 {
		t.Errorf("delivered=%d droppedNoHost=%d, want 0 and 1", delivered, noHost)
	}
	if _, _, recv, _ := row.Stats(); recv != 0 {
		t.Errorf("new tenant's receive counter = %d, want 0", recv)
	}

	net.Send(src, row.Addr, 100, "for the new tenant")
	if err := eng.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "for the new tenant" {
		t.Errorf("new tenant received %v, want its own datagram", got)
	}
}
