// Package core implements the paper's central machinery: the Fix-Routes
// (FR) algorithms of Appendix B that compute S*BGP routing outcomes under
// partial deployment, the doomed/immune/protectable partitions of
// Section 4.3, protocol-downgrade detection (Section 3.2, Appendix F),
// and the security metric H_{M,D}(S) of Section 4.1 with its upper and
// lower bounds.
//
// The default threat model is that of Section 3.1: a single attacker AS m
// attacks a single destination AS d by announcing the bogus one-hop path
// "m, d" via legacy (insecure) BGP to all of its neighbors. The attack is
// a pluggable strategy (the Attack interface; see attack.go): variants
// swap the seeded announcements — no attack, padded paths, origin spoofs
// — while the stage machinery, labels, and metrics stay shared. All other
// ASes apply the routing policies of Section 2.2 with one of the three
// placements of the route-security step (security 1st / 2nd / 3rd). The
// doomed/immune/protectable partitions remain defined for the default
// one-hop attack, per the paper.
package core

import (
	"sbgp/internal/asgraph"
	"sbgp/internal/policy"
)

// Deployment describes which ASes have adopted S*BGP.
//
// Full members validate received routes, prefer secure routes per their
// security model, and (re-)sign announcements, so secure routes may pass
// through them. Simplex members run the lightweight unidirectional
// deployment of Section 5.3.2: they sign announcements for their own
// prefixes (so they are secure *origins*) but cannot validate received
// routes (so as *sources* they behave insecurely) and cannot extend
// secure paths as intermediaries.
//
// A nil *Deployment is the baseline scenario S = ∅ of Section 4.2: RPKI
// origin authentication only.
type Deployment struct {
	Full    *asgraph.Set
	Simplex *asgraph.Set
}

// FullSecure reports whether v validates and prefers secure routes.
func (dp *Deployment) FullSecure(v asgraph.AS) bool {
	return dp != nil && dp.Full.Has(v)
}

// OriginSecure reports whether routes originated by v can be secure.
func (dp *Deployment) OriginSecure(v asgraph.AS) bool {
	return dp != nil && (dp.Full.Has(v) || dp.Simplex.Has(v))
}

// SecureCount returns the number of ASes with any S*BGP deployment.
func (dp *Deployment) SecureCount() int {
	if dp == nil {
		return 0
	}
	return dp.Full.UnionLen(dp.Simplex)
}

// Label classifies where an AS's traffic ends up during an attack, in the
// three-valued scheme of Appendix C.
type Label uint8

const (
	// LabelNone: the AS has no route at all (possible only on
	// disconnected inputs).
	LabelNone Label = iota
	// LabelDest: every route the AS may end up with reaches the
	// legitimate destination — the AS is "happy" (Table 2).
	LabelDest
	// LabelAttacker: every route reaches the attacker — "unhappy".
	LabelAttacker
	// LabelAmbig: the AS's fate rests on its (unknown) intradomain
	// tiebreak between equally good insecure routes, or on the fate of
	// an upstream AS in that situation. Such ASes are counted happy in
	// the metric's upper bound and unhappy in its lower bound.
	LabelAmbig
)

// String returns a short human-readable label name.
func (l Label) String() string {
	switch l {
	case LabelDest:
		return "happy"
	case LabelAttacker:
		return "unhappy"
	case LabelAmbig:
		return "tiebreak"
	default:
		return "unrouted"
	}
}

// Outcome is the stable routing state computed by an Engine for one
// (destination, attacker, deployment) triple. Slices are indexed by AS
// and owned by the Engine: an Outcome is valid only until the Engine's
// next Run. Use Clone to retain one.
//
// The five arrays are sections of one structure-of-arrays slab (see
// slab.go) in every outcome the package itself builds; code that fills
// an Outcome field-by-field with separate slices remains valid, just
// slower to allocate.
type Outcome struct {
	Dst      asgraph.AS
	Attacker asgraph.AS // None for normal conditions

	// Class is the local-preference class of each AS's route.
	Class []policy.Class
	// Len is each AS's route length (hops, counting the attacker's
	// claimed extra hop to the destination).
	Len []int32
	// Secure reports whether the AS's route is fully secure (learned
	// end-to-end via S*BGP).
	Secure []bool
	// Label is the three-valued happiness classification.
	Label []Label
	// Next is a representative next hop (the lowest-indexed choice in
	// the AS's best group); None at origins and unrouted ASes.
	Next []asgraph.AS
}

// Clone returns an independent copy of the outcome. The copy's arrays
// share one backing allocation (see slab.go), so retaining many clones
// — chained sweeps keep one per in-flight chain — costs one allocation
// each instead of five.
func (o *Outcome) Clone() *Outcome {
	c := &Outcome{Dst: o.Dst, Attacker: o.Attacker}
	c.attachSlab(len(o.Class))
	copy(c.Class, o.Class)
	copy(c.Len, o.Len)
	copy(c.Secure, o.Secure)
	copy(c.Label, o.Label)
	copy(c.Next, o.Next)
	return c
}

// IsSource reports whether v is a source AS for metric purposes (neither
// the destination nor the attacker).
func (o *Outcome) IsSource(v asgraph.AS) bool {
	return v != o.Dst && v != o.Attacker
}

// NumSources returns the number of source ASes (|V|-2 under attack,
// |V|-1 in normal conditions).
func (o *Outcome) NumSources() int {
	n := len(o.Class) - 1
	if o.Attacker != asgraph.None {
		n--
	}
	return n
}

// HappyBounds returns the number of source ASes that are certainly happy
// (lower bound) and possibly happy (upper bound), per Section 4.1's
// treatment of the tiebreak step.
func (o *Outcome) HappyBounds() (lo, hi int) {
	for v := asgraph.AS(0); int(v) < len(o.Label); v++ {
		if !o.IsSource(v) {
			continue
		}
		switch o.Label[v] {
		case LabelDest:
			lo++
			hi++
		case LabelAmbig:
			hi++
		}
	}
	return lo, hi
}

// Path reconstructs a representative route from v toward the route's
// origin by following Next pointers. It returns nil for unrouted ASes.
func (o *Outcome) Path(v asgraph.AS) []asgraph.AS {
	if o.Class[v] == policy.ClassNone {
		return nil
	}
	var path []asgraph.AS
	for v != asgraph.None {
		path = append(path, v)
		if len(path) > len(o.Class) {
			panic("core: Next pointers form a cycle")
		}
		v = o.Next[v]
	}
	return path
}
