package incremental

// Multi-query plan sharing: a PlanStore hash-conses the maintained tables
// of sessions with overlapping join-tree structure into refcounted shared
// nodes, so one delta patch per shared node fans out to every subscribed
// query instead of being recomputed per session.
//
// Sharing has three tiers. Tier 0 is keyed by relation name, the others by
// the structural fingerprints of core.PlanShape:
//
//   - Row tier (tier 0): the database relations themselves — the rows and
//     the RowSet indexing them. Every subscriber holds the same snapshot
//     and is fed the same stream, so one copy serves all of them; the
//     first subscriber at a stream position patches it, and the rest
//     replay the recorded outcome (an error for a delete of an absent
//     tuple, nil otherwise).
//   - Subtree tier: member base projections, unit (bag) relations, and
//     botjoin tables intern per join-tree subtree. Any two sessions whose
//     queries name an identical subtree (same relations, variable
//     bindings, selections, connectors — recursively) share those tables.
//   - Residue tier: when two sessions' *entire* plans fingerprint equal
//     (byte-identical queries, typically), the topjoin tables and the
//     multiplicity-table factor groups — "the residual (topjoin +
//     multiplicity-factor) state" — intern too. Sharing the residue implies
//     sharing every base and node, so such a *fully-shared* follower skips
//     propagation altogether: once the lead has applied a position, the
//     follower replays the row outcome, re-reads its private component
//     totals from the shared root botjoins, and bumps its cursor, without
//     allocating (catchUp).
//
// Riders: StepGroup, which steps a round through a store's subscribers,
// lets only the first holder of each residue (the stepper) apply the
// round's updates when the holders also share all their rows. Every other
// holder rides: it does nothing per update and calls catchUp once at the
// end of the round, so a residue held by N sessions costs one session's
// work per update plus N-1 catch-ups per round. Session.LS memoizes its
// Result on the residue by stream position, so the holders at one position
// also share one LS() assembly and one read-only *core.Result.
//
// Delta application is lead/follower with per-node stream positions: all
// subscribers of a store are fed the same update stream; the first session
// to apply stream position p against a shared node computes the delta,
// patches the node's tables once, and memoizes the delta; every later
// subscriber at p replays the memo into its private residue without
// touching the shared tables. Positions are per *node*, not per store, so
// sessions whose shared regions differ interleave correctly: a node's
// tables advance exactly once per stream position no matter which
// subscriber reaches it first.
//
// Concurrency discipline: all sessions attached to one store must apply
// updates, and read LS, from a single goroutine (the serving layer's shard
// loop), and must be fed identical update streams. Adopt and ReleaseShared
// may be called from other goroutines — they touch the refcount maps under
// the store mutex — but both additionally require the store quiescent (no
// round in flight): Adopt compares against the shared tables, and
// ReleaseShared copies the shared rows the session takes private. The
// serving layer guarantees it by attaching and detaching either under the
// coordinator's lock or inside the shard loop at a round boundary.

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"tsens/internal/core"
	"tsens/internal/relation"
)

// trimStride is how many updates an attached session applies between
// opportunistic memo trims (serving rounds also trim explicitly).
const trimStride = 256

// sharedTabs is the index home of one shared table: the secondary
// RowIndexes every subscriber's compiled plans probe. It is owned by the
// interned entry (not by any session), so whichever subscriber leads a
// patch syncs the indexes all of them use.
type sharedTabs struct {
	m map[string]*relation.RowIndex
}

func newSharedTabs() *sharedTabs {
	return &sharedTabs{m: make(map[string]*relation.RowIndex)}
}

func (st *sharedTabs) index(c *relation.Counted, attrs []string) (*relation.RowIndex, error) {
	key := strings.Join(attrs, "\x1f")
	if ix, ok := st.m[key]; ok {
		return ix, nil
	}
	ix, err := relation.NewRowIndex(c, attrs)
	if err != nil {
		return nil, err
	}
	st.m[key] = ix
	return ix, nil
}

func (st *sharedTabs) sync() {
	for _, ix := range st.m {
		ix.Sync()
	}
}

// nodeDelta is one memoized per-update delta of one shared node: the unit
// relation delta (set only at the update's landing node) and the botjoin
// delta. Counted deltas are immutable once produced, so followers read
// them without copying.
type nodeDelta struct {
	drel, dbot *relation.Counted
}

// sharedBase is an interned member base projection.
type sharedBase struct {
	table *relation.Counted
	tabs  *sharedTabs
	pos   int64
}

// sharedNode is an interned join-tree subtree: the unit relation and
// botjoin at its root (everything deeper is interned by the child nodes),
// plus the per-position delta memos followers replay.
type sharedNode struct {
	rel, bot         *relation.Counted
	relTabs, botTabs *sharedTabs
	pos              int64
	memo             map[int64]*nodeDelta
	// memoLen mirrors len(memo) for Stats: the memo map is owned by the
	// stepping goroutine, which writes it without the store lock (the
	// step-group discipline serializes subscribers), so Stats must read
	// the count through this atomic instead of the map.
	memoLen atomic.Int64
}

func (n *sharedNode) memoSet(pos int64, drel, dbot *relation.Counted) *nodeDelta {
	e := n.memo[pos]
	if e == nil {
		e = &nodeDelta{}
		n.memo[pos] = e
		n.memoLen.Add(1)
	}
	if drel != nil {
		e.drel = drel
	}
	if dbot != nil {
		e.dbot = dbot
	}
	return e
}

// sharedRows is an interned database relation (tier 0): the rows every
// subscriber reads through Rows and Has, and the RowSet that patches them.
type sharedRows struct {
	rel  *relation.Relation
	rows *relation.RowSet
	pos  int64
	// errs records, by stream position, the updates the lead rejected
	// (deletes of absent tuples), so followers report the same error.
	// Rare, so allocated on first use; trimmed with the memos.
	errs map[int64]error
}

// reject records the lead's rejection of the update at stream position pos.
func (r *sharedRows) reject(pos int64, err error) {
	if r.errs == nil {
		r.errs = make(map[int64]error)
	}
	r.errs[pos] = err
}

// sharedResidue is an interned whole-plan residue: the topjoin tables and
// multiplicity-table factor groups of a plan, shared only between sessions
// whose full plan fingerprints match index-for-index.
type sharedResidue struct {
	tops    []*relation.Counted
	topTabs []*sharedTabs
	gts     []*gtState
	gtTabs  []*sharedTabs // index homes of gts[i].table, same order
	pos     int64

	// ls memoizes Session.LS at stream position lsPos: every holder at that
	// position reads the same tables and component totals, so one Result
	// serves them all.
	ls    *core.Result
	lsPos int64
}

type (
	internedRows    = relation.Interned[*sharedRows]
	internedBase    = relation.Interned[*sharedBase]
	internedNode    = relation.Interned[*sharedNode]
	internedResidue = relation.Interned[*sharedResidue]
)

// PlanStore owns the hash-cons maps and refcounts of one sharing domain.
// Create one per group of sessions fed an identical update stream (the
// serving layer keeps one per shard per routing discipline).
type PlanStore struct {
	mu       sync.Mutex
	rows     *relation.Interner[*sharedRows]
	bases    *relation.Interner[*sharedBase]
	nodes    *relation.Interner[*sharedNode]
	residues *relation.Interner[*sharedResidue]
	subs     map[*Session]struct{}

	// clock is the number of stream updates fully applied through the
	// store: every interned entry sits at pos == clock whenever the store
	// is quiescent, and Adopt aligns a new subscriber's cursor to it.
	// Atomic: the stepping goroutine bumps it without the store lock
	// (the step-group discipline serializes subscribers), while Stats
	// reads it from arbitrary goroutines.
	clock atomic.Int64

	// fail poisons the store: a propagation error on a shared table may
	// leave it half-patched for every subscriber, so all of them fail fast
	// rather than serve corrupt state.
	fail error
}

// NewPlanStore returns an empty store.
func NewPlanStore() *PlanStore {
	return &PlanStore{
		rows:     relation.NewInterner[*sharedRows](),
		bases:    relation.NewInterner[*sharedBase](),
		nodes:    relation.NewInterner[*sharedNode](),
		residues: relation.NewInterner[*sharedResidue](),
		subs:     make(map[*Session]struct{}),
	}
}

// AdoptStats reports what a session's Adopt call shared versus donated.
type AdoptStats struct {
	// RowsShared/RowsDonated count database relations (tier 0) spliced
	// in from the store versus interned from this session's own copy.
	RowsShared, RowsDonated int
	// BasesShared/NodesShared count tables adopted from the store
	// (another session donated them first); the *Donated counters are
	// this session's tables interned as new canonical entries.
	BasesShared, BasesDonated int
	NodesShared, NodesDonated int
	// ResidueShared reports whether the whole-plan residue (topjoins +
	// multiplicity factors) was adopted; ResidueDonated whether this
	// session's became canonical. Both false when partial subtree sharing
	// made the residue ineligible.
	ResidueShared, ResidueDonated bool
}

// FullShare reports whether every botjoin node was adopted from the store
// — the "second registration shares 100% of its botjoin nodes" property.
func (a AdoptStats) FullShare() bool {
	return a.NodesDonated == 0 && a.BasesDonated == 0 && a.NodesShared > 0
}

// PlanStoreStats is a point-in-time summary of a store. The json tags
// match the serving API's snake_case convention (GET /debug/plans embeds
// this struct verbatim).
type PlanStoreStats struct {
	Rows     int `json:"rows"` // interned entries (Rows: database relations)
	Bases    int `json:"bases"`
	Nodes    int `json:"nodes"`
	Residues int `json:"residues"`
	// Shared* count entries with more than one subscriber.
	SharedRows     int `json:"shared_rows"`
	SharedBases    int `json:"shared_bases"`
	SharedNodes    int `json:"shared_nodes"`
	SharedResidues int `json:"shared_residues"`
	// NodeRefs is the total node subscriptions; NodeRefs/Nodes is the
	// mean fan-out.
	NodeRefs    int   `json:"node_refs"`
	Subscribers int   `json:"subscribers"`
	MemoEntries int   `json:"memo_entries"`
	Clock       int64 `json:"clock"`
}

// Stats summarizes the store. Safe to call from any goroutine.
func (ps *PlanStore) Stats() PlanStoreStats {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	st := PlanStoreStats{
		Rows:           ps.rows.Len(),
		Bases:          ps.bases.Len(),
		Nodes:          ps.nodes.Len(),
		Residues:       ps.residues.Len(),
		SharedRows:     ps.rows.Shared(),
		SharedBases:    ps.bases.Shared(),
		SharedNodes:    ps.nodes.Shared(),
		SharedResidues: ps.residues.Shared(),
		Subscribers:    len(ps.subs),
		Clock:          ps.clock.Load(),
	}
	ps.nodes.Range(func(e *internedNode) {
		st.MemoEntries += int(e.Val.memoLen.Load())
		st.NodeRefs += e.Refs
	})
	return st
}

// Trim drops memoized deltas and row outcomes no live subscriber can still
// need. Attached sessions call it every trimStride updates they apply, and
// StepGroup once at the end of a round whose riders crossed such a
// boundary. Must not run concurrently with subscriber update application
// (same-goroutine discipline), because it reads subscriber cursors.
func (ps *PlanStore) Trim() {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	min := ps.clock.Load()
	for s := range ps.subs {
		if s.pos < min {
			min = s.pos
		}
	}
	ps.nodes.Range(func(e *internedNode) {
		for p := range e.Val.memo {
			if p < min {
				delete(e.Val.memo, p)
				e.Val.memoLen.Add(-1)
			}
		}
	})
	ps.rows.Range(func(e *internedRows) {
		for p := range e.Val.errs {
			if p < min {
				delete(e.Val.errs, p)
			}
		}
	})
}

// tablesCompatible is the defensive check backing every fingerprint hit: a
// canonical table must agree with the adopter's private one on schema and
// live cardinality before the pointers are spliced. The comparison is
// logical, not physical: a canonical table that has lived through deletes
// carries zero-count tombstones a freshly solved adopter lacks, and those
// must not block a share. Fingerprints are content hashes, so a logical
// mismatch means a bug (or an adopt outside a quiescent point); refusing
// the share keeps every subscriber correct.
func tablesCompatible(canon, mine *relation.Counted) bool {
	if canon == mine {
		return true
	}
	if len(canon.Attrs) != len(mine.Attrs) {
		return false
	}
	for i, a := range canon.Attrs {
		if mine.Attrs[i] != a {
			return false
		}
	}
	return liveRows(canon) == liveRows(mine)
}

// liveRows counts rows with nonzero multiplicity (tombstones excluded).
func liveRows(c *relation.Counted) int {
	n := 0
	for i := range c.Rows {
		cnt := c.Default
		if i < len(c.Cnt) {
			cnt = c.Cnt[i]
		}
		if cnt != 0 {
			n++
		}
	}
	return n
}

// Adopt attaches the session to store, hash-consing its maintained state:
// every database relation, member base and join-tree subtree already
// interned (and compatible) replaces the session's private copy,
// everything else is donated as the new canonical entry, and when the
// entire plan matches an interned one the topjoin/multiplicity residue is
// shared too. Only the component totals stay private. Shared rows make
// Has and Rows read the store's copy, which every subscriber sees at the
// same stream position under the lockstep discipline.
//
// The session must be at the same database state as the store's
// subscribers (same snapshot + same replayed stream), and the store must
// be quiescent — no subscriber mid-update. On any error the session is
// left unattached and fully private; sharing is strictly an optimization.
func (s *Session) Adopt(store *PlanStore) (AdoptStats, error) {
	var st AdoptStats
	if s.store != nil {
		return st, fmt.Errorf("incremental: session already attached to a plan store")
	}
	store.mu.Lock()
	defer store.mu.Unlock()
	if store.fail != nil {
		return st, fmt.Errorf("incremental: plan store poisoned: %w", store.fail)
	}
	quiet := true
	clk := store.clock.Load()
	store.rows.Range(func(e *internedRows) { quiet = quiet && e.Val.pos == clk })
	store.bases.Range(func(e *internedBase) { quiet = quiet && e.Val.pos == clk })
	store.nodes.Range(func(e *internedNode) { quiet = quiet && e.Val.pos == clk })
	store.residues.Range(func(e *internedResidue) { quiet = quiet && e.Val.pos == clk })
	if !quiet {
		return st, fmt.Errorf("incremental: plan store not quiescent (round in flight)")
	}

	// Tier 0: database relations. The check is multiset equality of the
	// rows, the same state every subscriber must hold; a relation that
	// differs stays private (its updates then patch the private copy).
	srows := make(map[string]*internedRows)
	for _, name := range s.db.Names() {
		mine := s.db.Relation(name)
		if e, ok := store.rows.Lookup(name); ok {
			if !slices.Equal(e.Val.rel.Attrs, mine.Attrs) || !e.Val.rows.Equal(s.rowsets[name]) {
				continue
			}
			store.rows.Retain(e)
			_ = s.db.Replace(e.Val.rel) // errors only for a name not in s.db
			s.rowsets[name] = e.Val.rows
			srows[name] = e
			st.RowsShared++
		} else {
			srows[name] = store.rows.Put(name, &sharedRows{rel: mine, rows: s.rowsets[name], pos: clk})
			st.RowsDonated++
		}
	}

	sol := s.sol
	shape := sol.PlanShape()
	remap := make(map[*relation.Counted]*relation.Counted)
	sub := func(c *relation.Counted) *relation.Counted {
		if n, ok := remap[c]; ok {
			return n
		}
		return c
	}
	shared := make(map[*relation.Counted]*sharedTabs)

	// Tier 1a: member base projections.
	sbase := make([][]*internedBase, len(sol.Units))
	for ui, u := range sol.Units {
		sbase[ui] = make([]*internedBase, len(u.Members))
		for mi, md := range u.Members {
			key := shape.Bases[ui][mi]
			if e, ok := store.bases.Lookup(key); ok {
				if !tablesCompatible(e.Val.table, md.Base) {
					continue // fingerprint collision: keep this member private
				}
				store.bases.Retain(e)
				remap[md.Base] = e.Val.table
				md.Base = e.Val.table
				sbase[ui][mi] = e
				shared[e.Val.table] = e.Val.tabs
				st.BasesShared++
			} else {
				sb := &sharedBase{table: md.Base, tabs: newSharedTabs(), pos: clk}
				sbase[ui][mi] = store.bases.Put(key, sb)
				shared[md.Base] = sb.tabs
				st.BasesDonated++
			}
		}
	}

	// Tier 1b: join-tree subtrees, leaf to root. A node interns only when
	// its whole subtree did (children and members), so shared regions are
	// subtree-closed and a climb crosses from shared into private state at
	// most once.
	snode := make([]*internedNode, len(sol.Units))
	nodeOK := make([]bool, len(sol.Units))
	var adoptNode func(i int)
	adoptNode = func(i int) {
		node := sol.Tree.Nodes[i]
		ok := true
		for _, c := range node.Children {
			adoptNode(c.Index)
			ok = ok && nodeOK[c.Index]
		}
		for _, e := range sbase[i] {
			ok = ok && e != nil
		}
		if !ok {
			return
		}
		u := sol.Units[i]
		u.Rel = sub(u.Rel) // singleton units alias their member's base
		key := shape.Nodes[i]
		if e, hit := store.nodes.Lookup(key); hit {
			if !tablesCompatible(e.Val.rel, u.Rel) || !tablesCompatible(e.Val.bot, sol.Bot[i]) {
				return
			}
			store.nodes.Retain(e)
			remap[u.Rel] = e.Val.rel
			remap[sol.Bot[i]] = e.Val.bot
			u.Rel = e.Val.rel
			sol.Bot[i] = e.Val.bot
			snode[i] = e
			shared[e.Val.rel] = e.Val.relTabs
			shared[e.Val.bot] = e.Val.botTabs
			st.NodesShared++
		} else {
			relTabs := shared[u.Rel]
			if relTabs == nil {
				relTabs = newSharedTabs()
			}
			n := &sharedNode{
				rel: u.Rel, bot: sol.Bot[i],
				relTabs: relTabs, botTabs: newSharedTabs(),
				pos:  clk,
				memo: make(map[int64]*nodeDelta),
			}
			snode[i] = store.nodes.Put(key, n)
			shared[n.rel] = n.relTabs
			shared[n.bot] = n.botTabs
			st.NodesDonated++
		}
		nodeOK[i] = true
	}
	for _, root := range sol.Tree.Roots {
		adoptNode(root.Index)
	}

	// Tier 2: whole-plan residue, eligible only when every subtree interned
	// (the residue's pieces must all be canonical tables).
	var sres *internedResidue
	resOK := true
	for i := range sol.Units {
		resOK = resOK && nodeOK[i]
	}
	if resOK {
		if e, hit := store.residues.Lookup(shape.Plan); hit {
			ok := len(e.Val.tops) == len(sol.Top)
			for i := range sol.Top {
				if !ok {
					break
				}
				if (e.Val.tops[i] == nil) != (sol.Top[i] == nil) {
					ok = false
				} else if sol.Top[i] != nil {
					ok = tablesCompatible(e.Val.tops[i], sol.Top[i])
				}
			}
			if ok {
				store.residues.Retain(e)
				for i, t := range sol.Top {
					if t != nil {
						remap[t] = e.Val.tops[i]
					}
				}
				sol.Top = e.Val.tops
				s.gts = e.Val.gts
				sres = e
				for i, t := range e.Val.tops {
					if t != nil {
						shared[t] = e.Val.topTabs[i]
					}
				}
				for gi, g := range e.Val.gts {
					shared[g.table] = e.Val.gtTabs[gi]
				}
				st.ResidueShared = true
			}
		} else {
			// Donate: remap this session's factor-group pieces onto the
			// canonical tables first, so later adopters find entries whose
			// pieces are exactly the store's tables.
			topTabs := make([]*sharedTabs, len(sol.Top))
			for i, t := range sol.Top {
				if t != nil {
					topTabs[i] = newSharedTabs()
					shared[t] = topTabs[i]
				}
			}
			gtTabs := make([]*sharedTabs, len(s.gts))
			for gi, g := range s.gts {
				for pi := range g.pieces {
					g.pieces[pi] = sub(g.pieces[pi])
				}
				g.plans = make([]*relation.ExpandPlan, len(g.pieces))
				gtTabs[gi] = newSharedTabs()
				shared[g.table] = gtTabs[gi]
			}
			r := &sharedResidue{tops: sol.Top, topTabs: topTabs, gts: s.gts, gtTabs: gtTabs, pos: clk}
			sres = store.residues.Put(shape.Plan, r)
			st.ResidueDonated = true
		}
	}

	// Rewire everything derived from the swapped pointers: factor-group
	// pieces, the dependency fan-out, the table set (shared tables leave
	// the tombstone tally; private ones re-track), and the plan caches
	// (they captured indexes of discarded private tables).
	if !st.ResidueShared {
		for _, g := range s.gts {
			for pi := range g.pieces {
				g.pieces[pi] = sub(g.pieces[pi])
			}
			g.plans = make([]*relation.ExpandPlan, len(g.pieces))
		}
	}
	s.deps = make(map[*relation.Counted][]pieceRef)
	s.memberGts = make(map[memberRef][]*gtState)
	for _, g := range s.gts {
		s.memberGts[g.ref] = append(s.memberGts[g.ref], g)
		for pi, p := range g.pieces {
			s.deps[p] = append(s.deps[p], pieceRef{g, pi})
		}
	}
	s.tables = newTableSet()
	s.tables.shared = shared
	trk := func(c *relation.Counted) {
		// Shared tables leave the tombstone-ratio bookkeeping entirely:
		// compaction rebuilds a session (detaching it), so its watermark
		// should watch only the state a rebuild would actually reclaim.
		if _, ok := shared[c]; !ok {
			s.tables.track(c)
		}
	}
	for i, u := range sol.Units {
		trk(sol.Bot[i])
		trk(u.Rel)
		for _, md := range u.Members {
			trk(md.Base)
		}
	}
	for _, t := range sol.Top {
		trk(t)
	}
	for _, g := range s.gts {
		trk(g.table)
	}
	s.plans = make(map[edgeKey]*relation.ExpandPlan)

	// One flat list of every held entry's cursor, so advancing past an
	// update walks a slice instead of the maps above.
	var cursors []*int64
	for _, e := range srows {
		cursors = append(cursors, &e.Val.pos)
	}
	for _, es := range sbase {
		for _, e := range es {
			if e != nil {
				cursors = append(cursors, &e.Val.pos)
			}
		}
	}
	for _, e := range snode {
		if e != nil {
			cursors = append(cursors, &e.Val.pos)
		}
	}
	if sres != nil {
		cursors = append(cursors, &sres.Val.pos)
	}

	s.store = store
	s.pos = clk
	s.srows = srows
	s.sbase = sbase
	s.snode = snode
	s.sres = sres
	s.cursors = cursors
	s.canRide = sres != nil && len(srows) == len(s.db.Names())
	s.adopt = st
	store.subs[s] = struct{}{}
	return st, nil
}

// AdoptStats returns what Adopt shared/donated; zero when unattached.
func (s *Session) AdoptStats() AdoptStats { return s.adopt }

// Shared reports whether the session is currently attached to a PlanStore.
func (s *Session) Shared() bool { return s.store != nil }

// ReleaseShared detaches the session from its store, dropping its
// references; entries reaching refcount zero are un-interned. Relations
// other subscribers still hold are copied, so the session's database and
// rowsets are private again (Rebuild, bulk Apply and compaction all detach
// first and then read them). The copy requires the store quiescent, like
// Adopt. The session must not apply further updates until rebuilt — the
// serving layer calls this when unregistering a query, where the session
// is discarded outright.
func (s *Session) ReleaseShared() {
	store := s.store
	if store == nil {
		return
	}
	store.mu.Lock()
	for name, e := range s.srows {
		if !store.rows.Release(e) {
			r := e.Val.rel.Clone()
			_ = s.db.Replace(r) // the name came from s.db at Adopt
			s.rowsets[name] = relation.NewRowSet(r)
		}
	}
	for _, es := range s.sbase {
		for _, e := range es {
			if e != nil {
				store.bases.Release(e)
			}
		}
	}
	for _, e := range s.snode {
		if e != nil {
			store.nodes.Release(e)
		}
	}
	if s.sres != nil {
		store.residues.Release(s.sres)
	}
	delete(store.subs, s)
	store.mu.Unlock()
	s.store = nil
	s.pos = 0
	s.srows = nil
	s.sbase = nil
	s.snode = nil
	s.sres = nil
	s.cursors = nil
	s.canRide = false
	s.adopt = AdoptStats{}
}

// sharedBaseOf returns the shared entry backing a member's base, or nil.
func (s *Session) sharedBaseOf(ref memberRef) *sharedBase {
	if s.sbase == nil || s.sbase[ref.ui][ref.mi] == nil {
		return nil
	}
	return s.sbase[ref.ui][ref.mi].Val
}

// sharedNodeOf returns the shared subtree entry at unit ui, or nil.
func (s *Session) sharedNodeOf(ui int) *sharedNode {
	if s.snode == nil || s.snode[ui] == nil {
		return nil
	}
	return s.snode[ui].Val
}

// advanceShared moves the session's stream cursor past one applied update,
// bumping every subscribed entry still waiting at this position (entries
// the update never touched advance with an implicit empty delta — memo
// absence is how followers observe "no change here").
func (s *Session) advanceShared() {
	if s.store == nil {
		return
	}
	p := s.pos
	for _, c := range s.cursors {
		if *c == p {
			*c = p + 1
		}
	}
	s.pos = p + 1
	if s.pos > s.store.clock.Load() {
		s.store.clock.Store(s.pos)
	}
	if s.pos%trimStride == 0 {
		s.store.Trim()
	}
}

// catchUp advances a fully-shared session from its cursor to target in one
// step: the stepper that holds the same residue has applied every position
// in between, to the rows, bases, nodes and residue alike, so the session
// only re-reads each component total from the shared root botjoins and
// bumps its cursor. Every position in the span must have been applied
// without error: a rejected update stops the stepper, and whoever catches
// up to it then applies that update itself (applyOne's follower path, or a
// rider at its turn in StepGroup). It returns how many positions it
// consumed, and leaves memo trimming to the steppers (advanceShared) and
// to StepGroup.
func (s *Session) catchUp(target int64) int64 {
	from := s.pos
	sol := s.sol
	for _, root := range sol.Tree.Roots {
		sol.Totals[root.Index] = sol.Bot[root.Index].SumCnt()
	}
	s.pos = target
	if target > s.store.clock.Load() {
		s.store.clock.Store(target)
	}
	return target - from
}

// StepGroup applies ups, in order, to a group of sessions: either a single
// session (a plain Apply), or sessions attached to one PlanStore at the
// same stream position. errs[i] receives g[i]'s first error, after which
// g[i] applies nothing more.
//
// Within a group updates interleave one at a time across the sessions: a
// partially-sharing session's private delta-joins read shared operand
// tables, which therefore must not have advanced past the update at hand.
// Sessions that hold the same residue and all of their rows from the store
// compute identical state, so for each residue only its first holder (the
// stepper) applies the updates. Every other holder is a rider: it does
// nothing per update, and once the round ends it catches up in one call to
// its stepper's position. When the stepper fails on an update, each of its
// riders, at its own turn in that update, catches up to it and applies it
// itself, so it fails exactly where, and with the error, per-update
// stepping would have. Groups bypass Apply's bulk-rebuild fallback: every
// update goes through delta propagation.
func StepGroup(g []*Session, ups []Update, errs []error) {
	if len(ups) == 0 {
		return
	}
	if len(g) == 1 {
		errs[0] = g[0].Apply(ups)
		return
	}
	// lead[i] is the stepper g[i] rides, or i itself for a stepper.
	lead := make([]int, len(g))
	var byRes map[*internedResidue]int
	for i, s := range g {
		lead[i] = i
		if !s.canRide {
			continue
		}
		if byRes == nil {
			byRes = make(map[*internedResidue]int)
		}
		if l, ok := byRes[s.sres]; !ok {
			byRes[s.sres] = i
		} else if g[l].pos == s.pos {
			lead[i] = l
		}
	}
	for k, up := range ups {
		for i, s := range g {
			if l := lead[i]; l != i {
				if errs[l] == nil {
					continue // riding
				}
				// Its stepper failed on this update: catch up to it and
				// apply it, as per-update stepping would have. From here
				// on the session steps (or has failed) on its own.
				lead[i] = i
				s.ride(s.pos + int64(k))
			} else if errs[i] != nil {
				continue
			}
			errs[i] = s.applyOne(up)
		}
	}
	// One trim per round, not one per rider: the memos of the round stay
	// pinned until the last rider has caught up.
	var trim *PlanStore
	for i, r := range g {
		if l := lead[i]; l != i {
			from := r.pos
			r.ride(g[l].pos)
			if from/trimStride != r.pos/trimStride {
				trim = r.store
			}
		}
	}
	if trim != nil {
		trim.Trim()
	}
}

// ride is a rider's catch-up to target, counted as the updates it
// absorbs: tsens_session_updates_total grows by every absorbed position,
// and tsens_session_update_seconds gets no sample, since nothing was
// applied one at a time.
func (s *Session) ride(target int64) {
	n := s.catchUp(target)
	s.updates += int(n)
	if s.updatesTotal != nil && n > 0 {
		s.updatesTotal.Add(n)
	}
}

// poisonStore marks the store failed after a propagation error that may
// have left a shared table half-patched; every subscriber fails fast from
// then on instead of serving corrupt state.
func (s *Session) poisonStore(err error) {
	if s.store == nil {
		return
	}
	s.store.mu.Lock()
	if s.store.fail == nil {
		s.store.fail = err
	}
	s.store.mu.Unlock()
}
