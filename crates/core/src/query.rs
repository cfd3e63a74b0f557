//! The direction-generic query engine: `PredHelper` (paper lines 207–252),
//! `TraverseRUall` (lines 257–269) and the ⊥-recovery of Definition 5.1,
//! written once over a zero-sized direction `D: Dir`.
//!
//! The paper specifies `Predecessor` only. A successor query is the same
//! algorithm with the key order reversed, so [`Down`] instantiates the
//! paper's predecessor and [`Up`] its successor counterpart; each direction
//! gets its own monomorphized copy of the engine. What the direction
//! decides:
//!
//! | | `Down` (predecessor) | `Up` (successor) |
//! |---|---|---|
//! | answer | largest key `< y` | smallest key `> y` |
//! | no answer | `NO_PRED` (−1) | `NO_SUCC` |
//! | query list | P-ALL | S-ALL |
//! | published traversal | RU-ALL, from `+∞` | U-ALL, from `−∞` |
//! | plain traversal | U-ALL, keys `< y` | RU-ALL, keys `> y` |
//! | recovery edges | `delPred2`, decreasing | `delSucc2`, increasing |
//!
//! Every key comparison of the paper reduces to [`Dir::beyond`] ("strictly
//! on the answer side of"), and every extremum to [`Dir::nearer`].
//!
//! Successor queries additionally drive the ascending scans: a scan keeps
//! one announced successor node and *slides* it from step to step
//! ([`LockFreeBinaryTrie::succ_step_slide`]).

use core::marker::PhantomData;
use core::sync::atomic::{AtomicU64, Ordering};

use lftrie_lists::announce::AnnounceList;
use lftrie_lists::pall::{PallCell, PallList};
use lftrie_primitives::epoch::{self, Guard};
use lftrie_primitives::fault::{self, FaultPoint};
use lftrie_primitives::liveness;
use lftrie_primitives::registry::Registry;
use lftrie_primitives::{Key, NEG_INF, NO_PRED, NO_SUCC, POS_INF};
use lftrie_telemetry::trace::{self, TracePhase};
use lftrie_telemetry::{self as telemetry, Counter, FlightKind, TraversalStats};

use crate::access::LatestAccess;
use crate::bitops;
use crate::node::{Kind, NotifyRecord, QueryNode, Status, UpdateNode, DEL2_UNSET};
use crate::scan_events;
use crate::trie::{seq_of, LockFreeBinaryTrie};

/// A query direction. Implemented by the zero-sized [`Down`] and [`Up`].
pub(crate) trait Dir: 'static {
    /// Index of this direction in the per-direction `[_; 2]` arrays.
    const IDX: usize;
    /// `true` for predecessor: answers lie below the query key.
    const DOWN: bool;
    /// The "no key on this side" answer.
    const NONE: i64;
    /// Head-sentinel key of the published traversal's list, where a
    /// query's cursor starts.
    const CURSOR_START: i64;
    /// Tail-sentinel key of that list: a notification stamped with it
    /// arrived after the receiver's published traversal finished.
    const CURSOR_END: i64;
    /// Relaxed-traversal touch counter.
    const TOUCHES: Counter;

    /// `key` lies strictly on this direction's side of `y`.
    #[inline]
    fn beyond(key: i64, y: i64) -> bool {
        if Self::DOWN {
            key < y
        } else {
            key > y
        }
    }

    /// The candidate nearer the query key (`max` for predecessor).
    #[inline]
    fn nearer(a: i64, b: i64) -> i64 {
        if Self::DOWN {
            a.max(b)
        } else {
            a.min(b)
        }
    }

    /// Side effects of announcing a query node.
    #[inline]
    fn on_announce(_key: i64) {}

    /// Side effects of withdrawing a query node.
    #[inline]
    fn on_withdraw(_node: &QueryNode) {}
}

/// Predecessor queries: the paper's direction.
pub(crate) struct Down;

/// Successor queries.
pub(crate) struct Up;

impl Dir for Down {
    const IDX: usize = 0;
    const DOWN: bool = true;
    const NONE: i64 = NO_PRED;
    const CURSOR_START: i64 = POS_INF;
    const CURSOR_END: i64 = NEG_INF;
    const TOUCHES: Counter = Counter::PredTouches;
}

impl Dir for Up {
    const IDX: usize = 1;
    const DOWN: bool = false;
    const NONE: i64 = NO_SUCC;
    const CURSOR_START: i64 = NEG_INF;
    const CURSOR_END: i64 = POS_INF;
    const TOUCHES: Counter = Counter::SuccTouches;

    /// S-ALL announcements are what scans amortize, so they are counted
    /// and recorded (aux 1 = S-ALL).
    #[inline]
    fn on_announce(key: i64) {
        scan_events::on_announce();
        telemetry::flight(FlightKind::Announce, key, 1);
    }

    #[inline]
    fn on_withdraw(node: &QueryNode) {
        scan_events::on_withdraw();
        telemetry::flight(FlightKind::Deannounce, node.key(), 1);
    }
}

/// The per-direction half of the query machinery.
pub(crate) struct QuerySide {
    /// P-ALL (`Down`) or S-ALL (`Up`): query announcements (§5.1).
    pub(crate) list: PallList<QueryNode>,
    /// Epoch-aware registry owning every query node of this direction;
    /// nodes are retired when their operation withdraws its announcement.
    pub(crate) nodes: Registry<QueryNode>,
    /// Diagnostic tallies (experiments E5/E7): how often the relaxed
    /// traversal returned ⊥, and how often the recovery computation ran.
    bottoms: AtomicU64,
    recoveries: AtomicU64,
}

impl QuerySide {
    pub(crate) fn new() -> Self {
        Self {
            list: PallList::new(),
            nodes: Registry::new(),
            bottoms: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
        }
    }

    pub(crate) fn traversal(&self) -> TraversalStats {
        TraversalStats {
            bottoms: self.bottoms.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
        }
    }
}

/// First-activated update nodes a traversal found, split by kind: the
/// paper's `(I, D)` pairs.
pub(crate) type Found = (Vec<*mut UpdateNode>, Vec<*mut UpdateNode>);

/// An update-node identity + key snapshot taken from a [`NotifyRecord`]:
/// what the computation keeps of a notifier without ever dereferencing it
/// (`seq` replaces the paper's pointer identity).
#[derive(Debug, Clone, Copy)]
struct NotifyCand {
    seq: u64,
    key: i64,
}

/// RAII unwind guard for one announced query: a panic between the
/// announcement and the helper's return withdraws the announcement (queries
/// have no side effects to complete — withdrawal alone restores
/// quiescence). Forgotten on the normal return path, where the caller owns
/// the withdrawal.
struct QueryGuard<'t, D: Dir> {
    trie: &'t LockFreeBinaryTrie,
    node: *mut QueryNode,
    _dir: PhantomData<D>,
}

impl<D: Dir> Drop for QueryGuard<'_, D> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        if fault::is_abandoning() || !fault::unwind_guards_enabled() {
            trace::note_abandon();
            return;
        }
        let _quiet = fault::suppress();
        telemetry::add(Counter::UnwindWithdrawals, 1);
        let _ = std::panic::catch_unwind(core::panic::AssertUnwindSafe(|| {
            let guard = &epoch::pin();
            self.trie.remove_query_node::<D>(self.node, guard);
        }));
    }
}

/// Payloads of `cells`, oldest-first (the list prepends), without `own`.
fn oldest_first(
    cells: impl Iterator<Item = *mut PallCell<QueryNode>>,
    own: *mut QueryNode,
) -> Vec<*mut QueryNode> {
    let mut q: Vec<*mut QueryNode> = cells
        .map(|c| unsafe { (*c).payload() })
        .filter(|&n| n != own)
        .collect();
    q.reverse();
    q
}

#[inline]
fn key_of(node: *mut UpdateNode) -> i64 {
    // Safety: callers only pass nodes reached under their epoch guard.
    unsafe { (*node).key() }
}

impl LockFreeBinaryTrie {
    /// The list a `D` query walks with its published cursor (RU-ALL for
    /// predecessor), and the one it walks plainly.
    #[inline]
    fn published_and_plain<D: Dir>(
        &self,
    ) -> (&AnnounceList<UpdateNode>, &AnnounceList<UpdateNode>) {
        if D::DOWN {
            (&self.ruall, &self.uall)
        } else {
            (&self.uall, &self.ruall)
        }
    }

    /// Lines 141–143 / 265–267: adds `u_node` to `found` if it is
    /// activated and first-activated (duplicate cells from helpers collapse
    /// here: the paper's sets).
    fn collect_first_activated(&self, u_node: *mut UpdateNode, found: &mut Found) {
        let u = unsafe { &*u_node };
        if u.status() != Status::Inactive && self.first_activated(u_node) {
            let bucket = if u.kind() == Kind::Ins {
                &mut found.0
            } else {
                &mut found.1
            };
            if !bucket.contains(&u_node) {
                bucket.push(u_node);
            }
        }
    }

    /// `TraverseUall(y)` (lines 137–145) for `Down`: the first-activated
    /// update nodes with keys on `D`'s side of `y`, from the list `D` walks
    /// plainly (for `Up`, the RU-ALL, whose prefix holds the keys `> y`).
    pub(crate) fn traverse_plain<D: Dir>(&self, y: i64, guard: &Guard<'_>) -> Found {
        let _p = trace::phase(TracePhase::Traverse);
        let mut found = Found::default();
        for (key, u_node) in self.published_and_plain::<D>().1.iter(guard) {
            if !D::beyond(key, y) {
                break; // L140
            }
            self.collect_first_activated(u_node, &mut found);
        }
        found // L145
    }

    /// `TraverseRUall(pNode)` (lines 257–269) for `Down`: walks the list `D`
    /// publishes its position in, collecting the first-activated update
    /// nodes with keys on `D`'s side of the query key.
    fn traverse_published<D: Dir>(&self, node: *mut QueryNode, guard: &Guard<'_>) -> Found {
        let _p = trace::phase(TracePhase::Traverse);
        let q = unsafe { &*node };
        let y = q.key(); // L259
        let list = self.published_and_plain::<D>().0;
        let mut found = Found::default();
        let mut cell = list.head(); // L260: head sentinel
        loop {
            // L261–263: atomic-copy step (validated publication, DESIGN.md D3)
            // Safety: `cell` starts at this list's head sentinel and each hop
            // returns another cell of the same list; the tail-sentinel break
            // below stops the walk before the tail is passed back in.
            cell = unsafe { list.advance_publishing(cell, &q.position, guard) };
            let key = unsafe { (*cell).key() };
            if key == D::CURSOR_END {
                break; // L268 (tail sentinel reached; payload is null)
            }
            if D::beyond(key, y) {
                // L264–267
                self.collect_first_activated(unsafe { (*cell).payload() }, &mut found);
            }
        }
        found // L269
    }

    /// Lines 148–155 for the `D` queries: sends a notification about
    /// `u_node` to every announced `D` query. `ins` is the INS set of the
    /// notifier's full U-ALL traversal (line 147) and `del2` its
    /// `delPred2`/`delSucc2` snapshot. Returns `false` once `u_node` is no
    /// longer first-activated (line 149), which ends the whole notify pass.
    pub(crate) fn notify_queries<D: Dir>(
        &self,
        u_node: *mut UpdateNode,
        ins: &[*mut UpdateNode],
        del2: [i64; 2],
        guard: &Guard<'_>,
    ) -> bool {
        let u = unsafe { &*u_node };
        for cell in self.queries[D::IDX].list.iter(guard) {
            // L148
            let q = unsafe { &*(*cell).payload() };
            if !self.first_activated(u_node) {
                return false; // L149
            }
            // The (key, cursor) pair under the era seqlock; a sliding scan
            // mid-slide is skipped rather than waited for: the step that
            // begins when the slide ends re-arms the cursor and runs its
            // traversals entirely after it, which is exactly the situation
            // of an update whose traversal passed before a fresh
            // announcement — a case the paper's proof already covers.
            let Some((q_key, threshold, era)) = q.read_stable() else {
                continue;
            };
            // L153: the INS node nearest q_key on D's side (updateNodeMax).
            let ext = ins
                .iter()
                .copied()
                .filter(|&i| D::beyond(key_of(i), q_key))
                .reduce(|a, b| {
                    if D::beyond(key_of(a), key_of(b)) {
                        b
                    } else {
                        a
                    }
                });
            // L150–154: build the notify node (a value snapshot; see
            // `NotifyRecord` for why no pointers are stored).
            let record = NotifyRecord {
                key: u.key(),   // L151
                kind: u.kind(), // (line 220's read)
                seq: u.seq,     // L152, by identity
                del2,           // (line 245's read)
                ext_seq: ext.map_or(0, seq_of),
                ext_key: ext.map_or(D::NONE, key_of),
                notify_threshold: threshold, // L154
                era,
            };
            // L155 + SendNotification (lines 156–161): guarded push.
            if !q
                .notify_list
                .push_with(record, || self.first_activated(u_node))
            {
                return false;
            }
        }
        true
    }

    /// One announced, certified query at `y` — `Predecessor(y)` (lines
    /// 253–256) for `Down` — withdrawn before it returns.
    pub(crate) fn query<D: Dir>(&self, y: i64) -> Option<Key> {
        let guard = &epoch::pin();
        let (answer, node) = self.helper::<D>(y, guard); // L254
        self.remove_query_node::<D>(node, guard); // L255
        (answer != D::NONE).then_some(answer as Key) // L256
    }

    /// `PredHelper(y)` for `Down`: announces a query node, computes the
    /// candidate answers and returns the nearest, along with the
    /// still-announced node.
    pub(crate) fn helper<D: Dir>(&self, y: i64, guard: &Guard<'_>) -> (i64, *mut QueryNode) {
        let side = &self.queries[D::IDX];
        // L208–209: announce.
        let node = side.nodes.alloc(QueryNode::new::<D>(y));
        let cell;
        {
            let _p = trace::phase(TracePhase::Announce);
            D::on_announce(y);
            cell = side.list.insert(node, guard);
            unsafe { (*node).set_cell(cell) };
            self.ann_add(1);
        }
        // From here to the return the announcement is live: a panic in the
        // computation withdraws it.
        let qg = QueryGuard::<D> {
            trie: self,
            node,
            _dir: PhantomData,
        };
        fault::point(FaultPoint::QueryAnnounced);
        // L210–214: Q = announcements older than ours, oldest-first.
        let q = oldest_first(side.list.iter_after(cell, guard), node);
        let answer = self.compute::<D>(y, 0, node, &q, guard);
        core::mem::forget(qg);
        (answer, node)
    }

    /// One certified successor step that *reuses* an already-announced
    /// successor node by sliding it to query key `y` (scan subsystem v2):
    ///
    /// 1. era → odd ([`QueryNode::begin_slide`]): notifiers stand back;
    /// 2. rewrite the query key, re-arm the published cursor at `−∞`, and
    ///    reclaim the notify list — every record in it (and every record a
    ///    racing push can still land while the era is odd) carries a stale
    ///    era the new step ignores, so a long scan's per-step work and
    ///    memory stay bounded by *this* step's notifications instead of
    ///    accumulating every notification since the scan began;
    /// 3. take the S-ALL head snapshot that will seed `Q` — still inside
    ///    the slide window, so the snapshot instant is unambiguously the
    ///    step's logical announce point: an announcement inserted after it
    ///    is strictly newer than this step (it cannot also see our slid
    ///    node as older-than itself in a way that makes the older-than
    ///    relation symmetric, as a post-`end_slide` snapshot would allow);
    /// 4. era → even ([`QueryNode::end_slide`]): the step begins;
    /// 5. rebuild `Q` from that snapshot — exactly the announcements a
    ///    *fresh* announce at the snapshot instant would have found older
    ///    than itself (our own cell, physically older, is excluded);
    /// 6. run the standard certified computation, accepting only
    ///    notifications stamped with this step's era.
    ///
    /// Era-stale records are ones whose sender read our pair before this
    /// step began; dropping them reproduces the legal execution in which
    /// that sender's S-ALL traversal passed before a fresh announcement.
    pub(crate) fn succ_step_slide(&self, node: *mut QueryNode, y: i64, guard: &Guard<'_>) -> i64 {
        // Before the slide begins: a crash here leaves the node stable
        // (even era) and still announced — the scan's drop (or adoption,
        // if the owner died) withdraws it.
        fault::point(FaultPoint::ScanStep);
        scan_events::on_slide();
        let s = unsafe { &*node };
        s.begin_slide();
        s.set_key(y);
        s.position.publish(Up::CURSOR_START);
        // Safety: only the scan owner (us) ever reads this notify list — a
        // scan's node is never a delete's embedded query node, which is the
        // one cross-thread read path to a query's notify list.
        unsafe { s.notify_list.clear() };
        let list = &self.queries[Up::IDX].list;
        let snap = list.head_snapshot(guard);
        let era = s.end_slide();
        telemetry::flight(FlightKind::Slide, y, era);
        let q = oldest_first(list.iter_from(snap, guard), node);
        self.compute::<Up>(y, era, node, &q, guard)
    }

    /// The certified computation (lines 215–252) for the announced `node`
    /// at query key `y`: traversals, notification harvest, and ⊥-recovery.
    /// `era` is the step's even era; records stamped with any other era
    /// are ignored (0 for nodes that never slide, so every record matches).
    fn compute<D: Dir>(
        &self,
        y: i64,
        era: u64,
        node: *mut QueryNode,
        q: &[*mut QueryNode],
        guard: &Guard<'_>,
    ) -> i64 {
        let (i_pub, d_pub) = self.traverse_published::<D>(node, guard); // L215

        // L216. The max()/min() sentinels (`y = u` for `Down`, `y = −1` for
        // `Up`) have every key on their side, so the climb is vacuous and
        // the traversal is a root descent. `Up` tests only the sign: the
        // cache line holding `universe` is written by every announcement.
        let sentinel = if D::DOWN {
            y >= self.universe as i64
        } else {
            y < 0
        };
        let r0 = if sentinel {
            bitops::relaxed_extremum::<D, _>(&self.core, self)
        } else {
            bitops::relaxed_query::<D, _>(&self.core, self, y)
        };
        let (i_plain, d_plain) = self.traverse_plain::<D>(y, guard); // L217

        // L218–227: collect notifications (head read = C_notify). Records
        // are value snapshots; identity tests use never-reused seq ids.
        let mut i_notify: Vec<NotifyCand> = Vec::new();
        let mut d_notify: Vec<NotifyCand> = Vec::new();
        for record in unsafe { &*node }.notify_list.iter() {
            // L219: notify nodes on D's side of y only, from this step.
            if record.era != era || !D::beyond(record.key, y) {
                continue;
            }
            let cand = NotifyCand {
                seq: record.seq,
                key: record.key,
            };
            if record.kind == Kind::Ins {
                // L220–222: the cursor had reached the key at send time.
                if !D::beyond(record.key, record.notify_threshold)
                    && !i_notify.iter().any(|c| c.seq == record.seq)
                {
                    i_notify.push(cand);
                }
            } else if D::beyond(record.notify_threshold, record.key)
                && !d_notify.iter().any(|c| c.seq == record.seq)
            {
                // L223–225: the cursor had passed the key at send time.
                d_notify.push(cand);
            }
            // L226–227: accept the notifier's updateNodeMax when the
            // notification arrived after our published traversal finished
            // and the notifier itself was not seen during that traversal.
            if record.notify_threshold == D::CURSOR_END
                && !i_pub.iter().any(|&u| seq_of(u) == record.seq)
                && !d_pub.iter().any(|&u| seq_of(u) == record.seq)
                && record.ext_seq != 0
                && !i_notify.iter().any(|c| c.seq == record.ext_seq)
            {
                i_notify.push(NotifyCand {
                    seq: record.ext_seq,
                    key: record.ext_key,
                });
            }
        }

        // L228: r1 = nearest key over
        // Iplain ∪ Inotify ∪ (Dplain − Dpub) ∪ (Dnotify − Dpub).
        let mut r1 = D::NONE;
        for &u in &i_plain {
            r1 = D::nearer(r1, key_of(u));
        }
        for c in &i_notify {
            r1 = D::nearer(r1, c.key);
        }
        for &u in &d_plain {
            if !d_pub.contains(&u) {
                r1 = D::nearer(r1, key_of(u));
            }
        }
        for c in &d_notify {
            if !d_pub.iter().any(|&u| seq_of(u) == c.seq) {
                r1 = D::nearer(r1, c.key);
            }
        }

        // L229–251: the relaxed traversal failed — recover from the
        // embedded queries' results.
        let r0 = match r0 {
            Some(v) => v,
            None => {
                let side = &self.queries[D::IDX];
                side.bottoms.fetch_add(1, Ordering::Relaxed);
                telemetry::add(Counter::RelaxedBottoms, 1);
                if d_pub.is_empty() {
                    D::NONE // only r1 constrains the answer (see §5.2)
                } else {
                    side.recoveries.fetch_add(1, Ordering::Relaxed);
                    telemetry::add(Counter::Recoveries, 1);
                    telemetry::flight(FlightKind::Recovery, y, D::IDX as u64);
                    let _p = trace::phase(TracePhase::Recovery);
                    self.recover::<D>(y, era, node, q, &d_pub) // L230–251
                }
            }
        };
        D::nearer(r0, r1) // L252
    }

    /// Lines 231–251: Definition 5.1's graph computation over the notify
    /// lists of this query and of the oldest relevant embedded query. The
    /// entries of `L` are value snapshots of notify records — nothing here
    /// dereferences a notifier.
    fn recover<D: Dir>(
        &self,
        y: i64,
        era: u64,
        node: *mut QueryNode,
        q: &[*mut QueryNode],
        d_pub: &[*mut UpdateNode],
    ) -> i64 {
        // L232: query nodes of the first embedded queries of Dpub's deletes.
        let embedded: Vec<*mut QueryNode> = d_pub
            .iter()
            .map(|&d| unsafe { (*d).del_query_node::<D>() })
            .collect();

        // L231–236: L1 from the *earliest announced* such node we saw in Q
        // (Q is oldest-first, so the first match), prepending each notifier.
        let mut l1: Vec<NotifyRecord> = Vec::new();
        if let Some(&earliest) = q.iter().find(|&n| embedded.contains(n)) {
            for record in unsafe { &*earliest }.notify_list.iter() {
                if D::beyond(record.key, y) && !l1.iter().any(|e| e.seq == record.seq) {
                    l1.insert(0, *record);
                }
            }
        }

        // L237–241: L2 from our own notify list (this step's era only); also
        // remove from L1 every update node that notified us.
        let mut l2: Vec<NotifyRecord> = Vec::new();
        for record in unsafe { &*node }.notify_list.iter() {
            if record.era != era || !D::beyond(record.key, y) {
                continue; // L238
            }
            l1.retain(|e| e.seq != record.seq); // L239
            if !D::beyond(record.notify_threshold, record.key)
                && !l2.iter().any(|e| e.seq == record.seq)
            {
                l2.insert(0, *record); // L240–241
            }
        }

        // L242: L = L1 · L2.
        let mut l = l1;
        l.extend(l2);

        // L243: drop DEL nodes that are not the last update node in L with
        // their key (so ≤ 1 DEL node per key survives).
        let l: Vec<NotifyRecord> = l
            .iter()
            .enumerate()
            .filter(|&(i, e)| e.kind == Kind::Ins || !l[i + 1..].iter().any(|v| v.key == e.key))
            .map(|(_, &e)| e)
            .collect();

        // L244–246 (Definition 5.1): edges key(dNode) → dNode.delPred2 for
        // DEL nodes in L. A DEL node only notifies after line 201 recorded
        // its second result, so the snapshot is always present (§5.2).
        // Each vertex has ≤ 1 outgoing edge and every edge moves strictly
        // onto D's side, so chains terminate.
        let mut edges: Vec<(i64, i64)> = Vec::new();
        for e in l.iter().filter(|e| e.kind == Kind::Del) {
            let w = e.del2[D::IDX];
            debug_assert_ne!(w, DEL2_UNSET, "DEL in L without its second result");
            if w != DEL2_UNSET {
                edges.push((e.key, w));
            }
        }
        let out_edge = |v: i64| edges.iter().find(|&&(u, _)| u == v).map(|&(_, w)| w);

        // L247–248: X = delPred results of Dpub ∪ keys of INS nodes in L.
        let mut x_set: Vec<i64> = d_pub
            .iter()
            .map(|&d| unsafe { (*d).del_query::<D>() })
            .collect();
        x_set.extend(l.iter().filter(|e| e.kind == Kind::Ins).map(|e| e.key));

        // L249–251: the nearest sink of T_L reachable from X, skipping keys
        // Dpub deleted (L250); the paper proves one exists here.
        let mut r = D::NONE;
        for &start in &x_set {
            let mut v = start;
            while let Some(next) = out_edge(v) {
                debug_assert!(D::beyond(next, v), "recovery edges must move on (Def. 5.1)");
                v = next;
            }
            if !d_pub.iter().any(|&d| key_of(d) == v) {
                r = D::nearer(r, v);
            }
        }
        r
    }

    /// Withdraws a query node's announcement and retires it.
    ///
    /// Retirement is sound here: after the list removal, the only other
    /// path to a query node is a DEL node's `del_query_node` (line 102),
    /// which the recovery computation follows only for DEL
    /// nodes found in its *own* published traversal — impossible for
    /// threads pinning after the owning `Delete` de-announced (line 205
    /// precedes line 206); concurrent holders are pinned, which the grace
    /// period covers.
    pub(crate) fn remove_query_node<D: Dir>(&self, node: *mut QueryNode, guard: &Guard<'_>) {
        // Exactly-once: under the crash model the owner's resume path and
        // the adoption sweep can both reach an embedded helper node (a
        // delete that died before announcing hides it from pass A, so pass
        // B withdraws it as a plain dead query — and a later helper can
        // still surface the delete for adoption, which withdraws again).
        let n = unsafe { &*node };
        if !n.claim_withdraw() {
            return;
        }
        let _p = trace::phase(TracePhase::Withdraw);
        D::on_withdraw(n);
        let side = &self.queries[D::IDX];
        // Safety: the cell was stored into the node by `helper`, and the
        // claim above makes this removal unique.
        unsafe { side.list.remove(n.cell(), guard) };
        unsafe { side.nodes.retire(node, guard) };
        self.ann_sub(1);
    }

    /// Withdraws every announced `D` query owned by a dead thread
    /// incarnation; returns how many.
    pub(crate) fn adopt_dead_queries<D: Dir>(&self, guard: &Guard<'_>) -> usize {
        // Collected first, then withdrawn: nobody else withdraws dead-owner
        // nodes while the caller holds the sweep lock.
        let dead: Vec<*mut QueryNode> = self.queries[D::IDX]
            .list
            .iter(guard)
            .map(|c| unsafe { (*c).payload() })
            .filter(|&n| !liveness::is_live(unsafe { (*n).owner() }))
            .collect();
        for &node in &dead {
            telemetry::add(Counter::OrphansAdopted, 1);
            telemetry::flight(
                FlightKind::Adopt,
                unsafe { (*node).key() },
                D::IDX as u64 + 1,
            );
            self.remove_query_node::<D>(node, guard);
        }
        dead.len()
    }
}
