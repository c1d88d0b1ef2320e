package pdms

import (
	"fmt"
	"slices"

	"repro/internal/cq"
	"repro/internal/glav"
	"repro/internal/relation"
	"repro/internal/view"
)

// Subscription is a materialized view placed at a peer over the global
// (qualified) schema — the data-placement mechanism of §3.1.2: "our
// ultimate goal is to materialize the best views at each peer to allow
// answering queries most efficiently". Base updates reach it as
// updategrams.
type Subscription struct {
	// AtPeer hosts the materialization.
	AtPeer string
	// MV is the materialized view; its definition's predicates are
	// qualified stored-relation names.
	MV *view.MaterializedView
}

// Subscribe places a materialized view at a peer. The definition def must
// use qualified predicates ("peer.rel"); it is refreshed immediately.
func (n *Network) Subscribe(atPeer, name string, def cq.Query) (*Subscription, error) {
	if n.Peer(atPeer) == nil {
		return nil, errUnknownPeer(atPeer)
	}
	for _, pred := range def.Predicates() {
		pn, rel := glav.SplitQualified(pred)
		p := n.Peer(pn)
		if p == nil || !p.HasRelation(rel) {
			return nil, fmt.Errorf("pdms: subscription %s references unknown %q", name, pred)
		}
	}
	mv := view.NewMaterialized(view.NewView(name, def))
	if err := mv.Refresh(n.GlobalDB()); err != nil {
		return nil, err
	}
	sub := &Subscription{AtPeer: atPeer, MV: mv}
	n.subMu.Lock()
	n.subs = append(n.subs, sub)
	n.subMu.Unlock()
	return sub, nil
}

// Subscriptions returns all placed views.
func (n *Network) Subscriptions() []*Subscription { return n.subs }

// PublishStats reports update-propagation work.
type PublishStats struct {
	// ViewsTouched counts subscriptions whose definitions mention the
	// updated relation.
	ViewsTouched int
	// TuplesShipped counts delta tuples sent to subscribers.
	TuplesShipped int
}

// Publish applies an updategram to a peer's stored relation and
// propagates incremental view updategrams to every affected
// subscription. "Updategrams on base data can be combined to create
// updategrams for views."
func (n *Network) Publish(peer, rel string, u view.Updategram) (*PublishStats, error) {
	p := n.Peer(peer)
	if p == nil {
		return nil, errUnknownPeer(peer)
	}
	if !p.HasRelation(rel) {
		return nil, fmt.Errorf("pdms: peer %s has no relation %q", peer, rel)
	}
	qualified := glav.QualifiedName(peer, rel)
	pre := n.GlobalDB()
	// Apply locally.
	local := view.Updategram{Relation: rel, Inserts: u.Inserts, Deletes: u.Deletes}
	if err := local.Apply(p.Store); err != nil {
		return nil, err
	}
	post := n.GlobalDB()
	stats := &PublishStats{}
	qu := view.Updategram{Relation: qualified, Inserts: u.Inserts, Deletes: u.Deletes}
	if err := n.fanoutViews(pre, post, qu, stats); err != nil {
		return nil, err
	}
	return stats, nil
}

// fanoutViews propagates one qualified base updategram into every
// placed materialized view whose definition mentions the relation —
// the one-to-many half of §3.1.2's "updategrams on base data can be
// combined to create updategrams for views". The prepared update
// (scratch databases with the delta installed) is shared by every
// affected subscription — built lazily on the first one instead of
// rebuilt per view. Shared by Publish (the in-process single-writer
// path) and the push applier (a concurrent goroutine), so the views'
// extents are guarded by subMu.
func (n *Network) fanoutViews(pre, post *relation.Database, qu view.Updategram, stats *PublishStats) error {
	n.subMu.Lock()
	defer n.subMu.Unlock()
	var prepared *view.PreparedUpdate
	for _, sub := range n.subs {
		if !sub.reads(qu.Relation) {
			continue
		}
		stats.ViewsTouched++
		if prepared == nil {
			var err error
			if prepared, err = view.PrepareUpdate(pre, post, qu); err != nil {
				return err
			}
		}
		delta, err := sub.MV.DeltaFrom(prepared)
		if err != nil {
			return err
		}
		stats.TuplesShipped += delta.Size()
		if err := sub.MV.ApplyDelta(delta); err != nil {
			return err
		}
	}
	return nil
}

// reads reports whether the view's definition mentions the qualified
// relation pred.
func (sub *Subscription) reads(pred string) bool {
	for _, a := range sub.MV.View.Def.Body {
		if a.Pred == pred {
			return true
		}
	}
	return false
}

// refreshViews recomputes from scratch, against db, the extent of every
// placed view that reads one of the qualified relations preds — the
// correctness fallback when incremental propagation fails, and the only
// way a view follows a relation replaced wholesale. A view whose
// refresh fails keeps its old extent (the next propagation retries).
func (n *Network) refreshViews(db *relation.Database, preds ...string) {
	n.subMu.Lock()
	defer n.subMu.Unlock()
	for _, sub := range n.subs {
		if slices.ContainsFunc(preds, sub.reads) {
			_ = sub.MV.Refresh(db) // on failure the old extent stays
		}
	}
}

// hasSubs reports whether any materialized views are placed, under
// subMu (the push applier reads it concurrently with Subscribe).
func (n *Network) hasSubs() bool {
	n.subMu.Lock()
	defer n.subMu.Unlock()
	return len(n.subs) > 0
}

// ViewExtent returns a race-free snapshot (clone) of a placed view's
// current extent. The push applier maintains extents from its own
// goroutine, so direct Extent reads while a subscription is live would
// race; this accessor takes the same lock the applier holds.
func (n *Network) ViewExtent(sub *Subscription) *relation.Relation {
	n.subMu.Lock()
	defer n.subMu.Unlock()
	if sub.MV.Extent == nil {
		return nil
	}
	return sub.MV.Extent.Clone()
}

// InsertAndPublish is a convenience wrapper publishing a single insert.
func (n *Network) InsertAndPublish(peer, rel string, t relation.Tuple) (*PublishStats, error) {
	return n.Publish(peer, rel, view.Updategram{Relation: rel, Inserts: []relation.Tuple{t}})
}

// PublishThroughView updates base data *through* a placed view — the
// §3.1.2 extension update_through.go implements, wired into the
// network's publish fan-out: the view-level updategram is translated
// into base-relation updategrams (rejecting ambiguous or side-effecting
// translations), each applied through Publish so the change propagates
// into every other placed view exactly like a direct base update.
func (n *Network) PublishThroughView(sub *Subscription, u view.Updategram) (*PublishStats, error) {
	baseUpdates, err := view.TranslateUpdate(sub.MV.View, n.GlobalDB(), u)
	if err != nil {
		return nil, err
	}
	total := &PublishStats{}
	for _, bu := range baseUpdates {
		peer, rel := glav.SplitQualified(bu.Relation)
		if peer == "" {
			return nil, fmt.Errorf("pdms: view %s over unqualified relation %q", sub.MV.View.Name, bu.Relation)
		}
		st, err := n.Publish(peer, rel, view.Updategram{Relation: rel, Inserts: bu.Inserts, Deletes: bu.Deletes})
		if err != nil {
			return nil, err
		}
		total.ViewsTouched += st.ViewsTouched
		total.TuplesShipped += st.TuplesShipped
	}
	return total, nil
}
