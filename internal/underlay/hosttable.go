package underlay

// hostTable indexes attached hosts by packed IPv4 address (hostKey) through
// /24 pages. An open-addressed table maps a page number (key>>8) to a page of
// 256 host slots, one per low address byte. Address pools allocate
// sequentially, so pages fill densely and a million hosts need only a few
// thousand pages. A page leaves the table when its last host detaches, and
// deletion shifts later entries back instead of leaving tombstones, so the
// table stays O(live hosts) however many hosts have come and gone over a
// long run. Steady churn reuses pages from a small spare list, which keeps
// attach and detach free of allocations.
type hostTable struct {
	slots []*hostPage // power-of-two length; nil marks an empty slot
	shift uint        // 32 - log2(len(slots)): Fibonacci-hash shift
	pages int         // occupied slots
	n     int         // attached hosts
	spare []*hostPage // emptied pages kept for reuse
}

// hostPage holds the hosts of one /24.
type hostPage struct {
	prefix uint32 // key >> 8
	live   int
	hosts  [256]*Host
}

const (
	// hostTableMinSlots is the table size allocated on first insert.
	hostTableMinSlots = 8
	// maxSparePages bounds the recycled-page list (64 KB). Churn frees
	// pages at about the rate it fills new ones, so a few dozen spares
	// absorb the fluctuation.
	maxSparePages = 32
)

// home returns the preferred slot of a page number.
func (t *hostTable) home(prefix uint32) int {
	return int((prefix * 0x9e3779b1) >> t.shift)
}

// find returns the slot holding the page for prefix, or -1.
func (t *hostTable) find(prefix uint32) int {
	if len(t.slots) == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := t.home(prefix); ; i = (i + 1) & mask {
		p := t.slots[i]
		if p == nil {
			return -1
		}
		if p.prefix == prefix {
			return i
		}
	}
}

// get returns the host attached at key, or nil.
func (t *hostTable) get(key uint32) *Host {
	if i := t.find(key >> 8); i >= 0 {
		return t.slots[i].hosts[key&0xff]
	}
	return nil
}

// put stores h at key, which must be empty.
func (t *hostTable) put(key uint32, h *Host) {
	var p *hostPage
	if i := t.find(key >> 8); i >= 0 {
		p = t.slots[i]
	} else {
		p = t.addPage(key >> 8)
	}
	p.hosts[key&0xff] = h
	p.live++
	t.n++
}

// del removes and returns the host at key (nil if none), releasing its page
// when it was the page's last host.
func (t *hostTable) del(key uint32) *Host {
	i := t.find(key >> 8)
	if i < 0 {
		return nil
	}
	p := t.slots[i]
	h := p.hosts[key&0xff]
	if h == nil {
		return nil
	}
	p.hosts[key&0xff] = nil
	p.live--
	t.n--
	if p.live == 0 {
		t.removeSlot(i)
		if len(t.spare) < maxSparePages {
			t.spare = append(t.spare, p)
		}
	}
	return h
}

// addPage inserts an empty page for prefix, growing the table to keep its
// load at or below one half.
func (t *hostTable) addPage(prefix uint32) *hostPage {
	if 2*(t.pages+1) > len(t.slots) {
		t.resize()
	}
	var p *hostPage
	if k := len(t.spare); k > 0 {
		p = t.spare[k-1]
		t.spare = t.spare[:k-1]
	} else {
		p = &hostPage{}
	}
	p.prefix = prefix
	t.insert(p)
	t.pages++
	return p
}

// insert places p in its probe sequence's first empty slot.
func (t *hostTable) insert(p *hostPage) {
	mask := len(t.slots) - 1
	i := t.home(p.prefix)
	for t.slots[i] != nil {
		i = (i + 1) & mask
	}
	t.slots[i] = p
}

// resize doubles the slot array and rehashes every page.
func (t *hostTable) resize() {
	size := 2 * len(t.slots)
	if size < hostTableMinSlots {
		size = hostTableMinSlots
	}
	old := t.slots
	t.slots = make([]*hostPage, size)
	t.shift = 32
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	for _, p := range old {
		if p != nil {
			t.insert(p)
		}
	}
}

// removeSlot empties slot i and shifts later members of its probe run back
// so every remaining page stays reachable from its home slot (linear-probing
// deletion without tombstones).
func (t *hostTable) removeSlot(i int) {
	mask := len(t.slots) - 1
	t.pages--
	for {
		t.slots[i] = nil
		j := i
		for {
			j = (j + 1) & mask
			p := t.slots[j]
			if p == nil {
				return
			}
			// The page at j may fill the hole at i only if its home slot
			// is not cyclically within (i, j].
			k := t.home(p.prefix)
			if i <= j {
				if i < k && k <= j {
					continue
				}
			} else if i < k || k <= j {
				continue
			}
			t.slots[i] = p
			i = j
			break
		}
	}
}
