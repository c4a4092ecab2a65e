package sketch

// Gate sizing, shared by every gate in the daemon. GateSlots also caps
// the pipeline's exact victim states per shard.
const (
	GateSlots      = 512
	gateWidth      = 1 << 15
	gateDepth      = 4
	gateDecayEvery = 1 << 20 // offers per windowed decay
)

// Gate admits a key once its guaranteed count in a space-saving table,
// fed by a count-min sketch, reaches admit. Every gateDecayEvery offers
// both structures halve, so admission tracks current rates.
//
// Replay contract: a slot buffers its key's newest offered items since
// the slot was inserted, at most admit and never more than its
// guaranteed count. So on admission the prefix plus the crossing item
// are the key's newest admit items; items offered before the slot
// existed, or trimmed by a decay, are never replayed. Single-writer.
type Gate[T any] struct {
	admit  int
	cm     *CountMin
	hh     *SpaceSaving[T]
	offers int // since the last decay
	decays uint64
}

// NewGate builds a gate admitting on the admit-th offer (minimum 1).
func NewGate[T any](admit int) *Gate[T] {
	g := &Gate[T]{admit: max(admit, 1)}
	g.Reset()
	return g
}

// Reset forgets every count, buffered item and decay.
func (g *Gate[T]) Reset() {
	*g = Gate[T]{admit: g.admit, cm: NewCountMin(gateWidth, gateDepth), hh: NewSpaceSaving[T](GateSlots, g.admit)}
}

// Offer counts and buffers one item of key. ready reports that key has
// reached the threshold; it stays true on later offers until Admit.
func (g *Gate[T]) Offer(key uint64, item T) (ready bool) {
	est := g.cm.Add(key)
	if g.offers++; g.offers >= gateDecayEvery {
		g.offers = 0
		g.cm.Halve()
		g.hh.Halve()
		g.decays++
	}
	s := g.hh.Touch(key, est, item)
	return s != nil && int(s.Guaranteed()) >= g.admit
}

// Admit frees key's slot and returns its buffered items, oldest first,
// before the crossing one (the item of the Offer that returned ready,
// which the caller handles). The slice is valid until the next Offer.
func (g *Gate[T]) Admit(key uint64) (prefix []T) {
	s := g.hh.Get(key)
	if s == nil || len(s.Buf) == 0 {
		return nil
	}
	buf := s.ordered()
	g.hh.Remove(key)
	return buf[:len(buf)-1]
}

// Tracked reports how many keys hold a slot.
func (g *Gate[T]) Tracked() int { return g.hh.Len() }

// Decays reports the windowed decays run since the last Reset.
func (g *Gate[T]) Decays() uint64 { return g.decays }
