//! The key-hash-sharded execution engine.
//!
//! CURP's whole premise (§3.2.2) is that operations on disjoint keys
//! commute — yet a store behind one global lock serializes them anyway.
//! [`ShardedStore`] splits the key space into `N` shards by
//! [`KeyHash::shard`] (high hash bits), gives each shard its own
//! [`parking_lot::Mutex`], and keeps the log-position counters global and
//! atomic. A single-key operation — the overwhelming fast-path case —
//! touches exactly one shard lock; commuting operations on different shards
//! never contend.
//!
//! ## Locking discipline
//!
//! * Multi-key operations acquire their shard set in **ascending index
//!   order** ([`Footprint::shard_set`](curp_proto::footprint::Footprint::shard_set)
//!   produces exactly that order), which makes every multi-shard lock
//!   acquisition deadlock-free.
//! * Whole-store operations (sync cut, export, migration) acquire **all**
//!   shards, still in ascending order, via [`ShardedStore::lock_all`]. While
//!   all shards are held no execution can be in flight, so the global
//!   position/sequence counters are quiescent — that is what makes the sync
//!   round's merged pending tail a *contiguous* log prefix.
//!
//! ## Determinism
//!
//! Fed the same operation sequence one at a time, a `ShardedStore` produces
//! byte-identical results, versions, log positions, and exports whatever
//! its shard count — every shard executes through the same (crate-private)
//! `KeySpace` code, and the proptest suite pins the equivalence against a
//! naive reference model. Under concurrent execution, positions interleave
//! nondeterministically *across* shards but stay ordered within each key,
//! which is all the §4.3 unsynced check needs.
//!
//! The `Ext` type parameter lets an embedding layer (the CURP master) keep
//! its own per-shard state — pending log tail, hot-key history — inside the
//! same mutex, so the fast path pays exactly one lock acquisition per
//! operation.

use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use curp_proto::footprint::Footprint;
use curp_proto::op::{Op, OpResult};
use curp_proto::types::KeyHash;
use parking_lot::{Mutex, MutexGuard};

use crate::store::{KeySpace, Object, StoreExport, Value};

/// Default shard count for the execution engine: enough to make commuting
/// operations contention-free across a typical worker pool while keeping
/// whole-store operations (which visit every shard) cheap.
pub const DEFAULT_STORE_SHARDS: usize = 8;

struct Shard<Ext> {
    space: KeySpace,
    ext: Ext,
}

/// The in-memory object store: one key space per shard, per-shard locking.
///
/// All methods take `&self`; concurrent callers serialize only when their
/// operations touch the same shard. See the module docs for the locking
/// discipline and the determinism contract.
pub struct ShardedStore<Ext = ()> {
    shards: Vec<Mutex<Shard<Ext>>>,
    /// Next log position to assign (== number of mutations executed).
    log_head: AtomicU64,
    /// All mutations with `write_pos < synced_pos` are replicated.
    synced_pos: AtomicU64,
}

impl<Ext: Default> ShardedStore<Ext> {
    /// Creates an empty store with `num_shards` shards.
    ///
    /// # Panics
    /// Panics if `num_shards` is zero.
    pub fn new(num_shards: usize) -> Self {
        assert!(num_shards > 0, "num_shards must be positive");
        assert!(
            num_shards <= curp_proto::lockrank::MAX_SHARDS,
            "num_shards exceeds the lock-rank shard band"
        );
        ShardedStore {
            shards: (0..num_shards)
                .map(|i| {
                    Mutex::ranked(
                        curp_proto::lockrank::STORE_SHARD + i as u32,
                        "store.shard",
                        Shard { space: KeySpace::default(), ext: Ext::default() },
                    )
                })
                .collect(),
            log_head: AtomicU64::new(0),
            synced_pos: AtomicU64::new(0),
        }
    }

    /// Rebuilds a store from exported state. The imported state is entirely
    /// *synced* (it came from a backup): `log_head == synced_pos == 1` and
    /// every object carries `write_pos == 0`, so nothing reads as unsynced
    /// until the first new mutation.
    pub fn import(
        num_shards: usize,
        objects: Vec<(Bytes, Object)>,
        dead_versions: Vec<(Bytes, u64)>,
    ) -> Self {
        let mut store = Self::new(num_shards);
        for (k, mut o) in objects {
            o.write_pos = 0;
            let shard = KeyHash::of(&k).shard(num_shards);
            store.shards[shard].get_mut().space.objects.insert(k, o);
        }
        for (k, v) in dead_versions {
            let shard = KeyHash::of(&k).shard(num_shards);
            store.shards[shard].get_mut().space.dead_versions.insert(k, v);
        }
        *store.log_head.get_mut() = 1;
        *store.synced_pos.get_mut() = 1;
        store
    }
}

impl<Ext> ShardedStore<Ext> {
    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `key` routes to.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        match self.shards.len() {
            1 => 0, // the single-space store routes without hashing
            n => KeyHash::of(key).shard(n),
        }
    }

    /// Next log position to be assigned; equals the count of mutations
    /// executed so far.
    pub fn log_head(&self) -> u64 {
        self.log_head.load(Ordering::SeqCst)
    }

    /// The position up to which mutations are known durable on backups.
    pub fn synced_pos(&self) -> u64 {
        self.synced_pos.load(Ordering::SeqCst)
    }

    /// Returns `true` if the store has speculative (unsynced) mutations.
    pub fn has_unsynced(&self) -> bool {
        self.synced_pos() < self.log_head()
    }

    /// Number of live objects (locks each shard briefly).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().space.objects.len()).sum()
    }

    /// Whether the store holds no live objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads an object by cloning it out of its shard (test/debug accessor).
    pub fn get_object(&self, key: &[u8]) -> Option<Object> {
        self.shards[self.shard_of(key)].lock().space.objects.get(key).cloned()
    }

    /// Locks the given shard set — which **must** be ascending and deduped,
    /// as produced by
    /// [`Footprint::shard_set`](curp_proto::footprint::Footprint::shard_set)
    /// — and returns the guards.
    ///
    /// # Panics
    /// Panics if `shard_set` is not strictly ascending or indexes past the
    /// shard count.
    pub fn lock(&self, shard_set: &[usize]) -> ShardGuards<'_, Ext> {
        let repr = match *shard_set {
            [] => GuardsRepr::None,
            [s] => GuardsRepr::One(s, self.shards[s].lock()),
            ref set => {
                let mut guards = Vec::with_capacity(set.len());
                let mut prev = None;
                for &s in set {
                    assert!(
                        prev.is_none_or(|p| p < s),
                        "shard set must be strictly ascending (got {set:?})"
                    );
                    prev = Some(s);
                    guards.push((s, self.shards[s].lock()));
                }
                GuardsRepr::Many(guards)
            }
        };
        ShardGuards { store: self, repr }
    }

    /// Locks every shard in ascending order. While the returned guards are
    /// held no execution is in flight anywhere in the store, so the global
    /// counters are quiescent and whole-store operations (sync cut, export,
    /// migration) see a consistent state.
    pub fn lock_all(&self) -> ShardGuards<'_, Ext> {
        let guards: Vec<_> = self.shards.iter().enumerate().map(|(i, s)| (i, s.lock())).collect();
        ShardGuards { store: self, repr: GuardsRepr::Many(guards) }
    }

    /// Locks the shards `op` touches and returns the guards, routing via
    /// the op's footprint. Single-key ops lock exactly one shard without
    /// materializing a footprint.
    pub fn lock_op(&self, op: &Op) -> ShardGuards<'_, Ext> {
        match op {
            Op::MultiPut { .. } => {
                let set = op.key_hashes().shard_set(self.shards.len());
                self.lock(&set)
            }
            _ => {
                // Single-key op: exactly one shard.
                // lint: audited-unwrap — guarded by the multi_key match arm above
                let key = op.keys().next().expect("single-key op has a key");
                let s = self.shard_of(key);
                ShardGuards { store: self, repr: GuardsRepr::One(s, self.shards[s].lock()) }
            }
        }
    }

    /// Executes `op`, locking its shard set internally. Equivalent to
    /// `self.lock_op(op).execute(op)`.
    pub fn execute(&self, op: &Op) -> OpResult {
        self.lock_op(op).execute(op)
    }

    /// Returns `true` if `key`'s last mutation has not been synced (§4.3).
    /// Locks the key's shard briefly; callers that need the answer to stay
    /// atomic with a subsequent execute must go through [`lock`](Self::lock)
    /// and use [`ShardGuards::touches_unsynced`] instead.
    pub fn is_unsynced(&self, key: &[u8]) -> bool {
        let synced = self.synced_pos();
        self.shards[self.shard_of(key)].lock().space.is_unsynced(key, synced)
    }

    /// Returns `true` if executing `op` would touch any unsynced object.
    /// Same atomicity caveat as [`is_unsynced`](Self::is_unsynced).
    pub fn touches_unsynced(&self, op: &Op) -> bool {
        op.keys().any(|k| self.is_unsynced(k))
    }

    /// Marks every mutation with position `< pos` as synced, locking all
    /// shards. See [`ShardGuards::mark_synced`] for the guard-held variant.
    pub fn mark_synced(&self, pos: u64) {
        self.lock_all().mark_synced(pos);
    }

    /// Exports the full state in deterministic (sorted) order, locking all
    /// shards for a consistent cut.
    pub fn export(&self) -> StoreExport {
        self.lock_all().export()
    }

    /// Exports one shard's state in deterministic (sorted) order, locking
    /// only that shard — the unit of incremental checkpointing.
    pub fn export_shard(&self, idx: usize) -> StoreExport {
        let mut objects = Vec::new();
        let mut dead = Vec::new();
        self.shards[idx].lock().space.export_into(&mut objects, &mut dead);
        objects.sort_by(|a, b| a.0.cmp(&b.0));
        dead.sort_by(|a, b| a.0.cmp(&b.0));
        (objects, dead)
    }

    /// Removes and returns every entry whose key hash satisfies `belongs`,
    /// in sorted order (§3.6 migration). The caller must have synced first.
    ///
    /// # Panics
    /// Panics if the store still has unsynced mutations.
    pub fn split_off(&self, belongs: impl Fn(KeyHash) -> bool) -> StoreExport {
        self.lock_all().split_off(&belongs)
    }
}

impl<Ext> std::fmt::Debug for ShardedStore<Ext> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("num_shards", &self.shards.len())
            .field("log_head", &self.log_head())
            .field("synced_pos", &self.synced_pos())
            .finish_non_exhaustive()
    }
}

enum GuardsRepr<'a, Ext> {
    None,
    /// Single-key fast path: no heap allocation for the guard set.
    One(usize, MutexGuard<'a, Shard<Ext>>),
    Many(Vec<(usize, MutexGuard<'a, Shard<Ext>>)>),
}

/// A locked set of shards, acquired in ascending index order.
///
/// Holding the guards pins every key routed to those shards: the commute
/// check ([`touches_unsynced`](Self::touches_unsynced)) and the execution
/// that depends on it stay atomic, exactly as they were under the old
/// global lock — but only for the keys this operation touches.
#[must_use = "shard guards that are immediately dropped release the shards"]
pub struct ShardGuards<'a, Ext> {
    store: &'a ShardedStore<Ext>,
    repr: GuardsRepr<'a, Ext>,
}

impl<'a, Ext> ShardGuards<'a, Ext> {
    /// Whether every shard of the store is held.
    fn holds_all(&self) -> bool {
        match &self.repr {
            GuardsRepr::Many(v) => v.len() == self.store.shards.len(),
            GuardsRepr::One(..) => self.store.shards.len() == 1,
            GuardsRepr::None => self.store.shards.is_empty(),
        }
    }

    fn shard(&self, idx: usize) -> &Shard<Ext> {
        match &self.repr {
            GuardsRepr::One(s, g) if *s == idx => g,
            GuardsRepr::Many(v) => match v.iter().find(|(s, _)| *s == idx) {
                Some((_, g)) => g,
                None => panic!("operation touched shard {idx} outside its lock set"),
            },
            _ => panic!("operation touched shard {idx} outside its lock set"),
        }
    }

    fn shard_mut(&mut self, idx: usize) -> &mut Shard<Ext> {
        match &mut self.repr {
            GuardsRepr::One(s, g) if *s == idx => g,
            GuardsRepr::Many(v) => match v.iter_mut().find(|(s, _)| *s == idx) {
                Some((_, g)) => g,
                None => panic!("operation touched shard {idx} outside its lock set"),
            },
            _ => panic!("operation touched shard {idx} outside its lock set"),
        }
    }

    /// Executes `op` against the held shards, drawing log positions from
    /// the store's global counter and routing each key with
    /// [`shard_of`](ShardedStore::shard_of). Callers that already computed
    /// the op's footprint should prefer
    /// [`execute_routed`](Self::execute_routed), which reuses it. Only
    /// shards in the lock set may be touched; a routing mismatch panics (it
    /// would be a protocol bug).
    pub fn execute(&mut self, op: &Op) -> OpResult {
        if let Op::MultiPut { .. } = op {
            return self.execute_routed(op, &op.key_hashes());
        }
        let store = self.store;
        // lint: audited-unwrap — guarded by the MultiPut arm above
        let key = op.keys().next().expect("single-key op has a key");
        let mut next_pos = || store.log_head.fetch_add(1, Ordering::SeqCst);
        self.shard_mut(store.shard_of(key)).space.execute(op, &mut next_pos)
    }

    /// Like [`execute`](Self::execute), but routes through `footprint` —
    /// the op's [`Op::key_hashes`] computed once per RPC — instead of
    /// re-hashing every key under the shard lock.
    pub fn execute_routed(&mut self, op: &Op, footprint: &Footprint) -> OpResult {
        debug_assert_eq!(&op.key_hashes(), footprint, "footprint must match the op");
        let store = self.store;
        let num_shards = store.shards.len();
        let mut next_pos = || store.log_head.fetch_add(1, Ordering::SeqCst);
        match op {
            // Multi-key: route each write to its own shard, consuming
            // positions in pair order — the order `KeySpace::execute` uses
            // for a whole `MultiPut`, so sequential runs stay
            // byte-identical at any shard count.
            Op::MultiPut { kvs } => {
                let mut last_version = 0;
                for ((key, value), &h) in kvs.iter().zip(footprint.iter()) {
                    let idx = h.shard(num_shards);
                    last_version = self.shard_mut(idx).space.write(
                        key,
                        Value::Str(value.clone()),
                        &mut next_pos,
                    );
                }
                OpResult::Written { version: last_version }
            }
            _ => {
                let idx = footprint[0].shard(num_shards);
                self.shard_mut(idx).space.execute(op, &mut next_pos)
            }
        }
    }

    /// The §4.3 check against the held shards: `true` if `op` touches any
    /// unsynced object. Hashes each key for routing; callers holding the
    /// precomputed footprint should prefer
    /// [`touches_unsynced_routed`](Self::touches_unsynced_routed).
    pub fn touches_unsynced(&self, op: &Op) -> bool {
        let synced = self.store.synced_pos();
        op.keys().any(|k| {
            let idx = self.store.shard_of(k);
            self.shard(idx).space.is_unsynced(k, synced)
        })
    }

    /// Like [`touches_unsynced`](Self::touches_unsynced), routing through
    /// the precomputed `footprint` instead of re-hashing each key.
    pub fn touches_unsynced_routed(&self, op: &Op, footprint: &Footprint) -> bool {
        debug_assert_eq!(&op.key_hashes(), footprint, "footprint must match the op");
        let synced = self.store.synced_pos();
        let num_shards = self.store.shards.len();
        op.keys().zip(footprint.iter()).any(|(k, &h)| {
            let idx = h.shard(num_shards);
            self.shard(idx).space.is_unsynced(k, synced)
        })
    }

    /// The embedding layer's state for shard `idx` (must be held).
    pub fn ext(&self, idx: usize) -> &Ext {
        &self.shard(idx).ext
    }

    /// Mutable access to the embedding layer's state for shard `idx`.
    pub fn ext_mut(&mut self, idx: usize) -> &mut Ext {
        &mut self.shard_mut(idx).ext
    }

    /// Visits `(shard index, ext)` for every held shard, in ascending order.
    pub fn for_each_ext_mut(&mut self, mut f: impl FnMut(usize, &mut Ext)) {
        match &mut self.repr {
            GuardsRepr::None => {}
            GuardsRepr::One(s, g) => f(*s, &mut g.ext),
            GuardsRepr::Many(v) => v.iter_mut().for_each(|(s, g)| f(*s, &mut g.ext)),
        }
    }

    /// Marks every mutation with position `< pos` as synced. Requires all
    /// shards to be held (the frontier is global).
    ///
    /// # Panics
    /// Panics if not all shards are held, if `pos` exceeds the log head, or
    /// if `pos` moves backwards.
    pub fn mark_synced(&mut self, pos: u64) {
        assert!(self.holds_all(), "mark_synced requires all shards locked");
        assert!(pos <= self.store.log_head(), "cannot sync beyond the log head");
        assert!(pos >= self.store.synced_pos(), "synced position cannot move backwards");
        self.store.synced_pos.store(pos, Ordering::SeqCst);
        self.for_each_shard_mut(|shard| shard.space.prune_tombstones(pos));
    }

    /// Exports the held shards' state in deterministic (sorted) order.
    /// Requires all shards to be held so the cut is a whole-store snapshot.
    pub fn export(&self) -> StoreExport {
        assert!(self.holds_all(), "export requires all shards locked");
        let mut objects = Vec::new();
        let mut dead = Vec::new();
        self.for_each_shard(|shard| shard.space.export_into(&mut objects, &mut dead));
        objects.sort_by(|a, b| a.0.cmp(&b.0));
        dead.sort_by(|a, b| a.0.cmp(&b.0));
        (objects, dead)
    }

    /// Extracts every entry whose key hash satisfies `belongs`, sorted
    /// (§3.6 migration). Requires all shards held and a fully synced store.
    pub fn split_off(&mut self, belongs: &dyn Fn(KeyHash) -> bool) -> StoreExport {
        assert!(self.holds_all(), "split_off requires all shards locked");
        assert!(!self.store.has_unsynced(), "must sync before migrating data out");
        let mut objects = Vec::new();
        let mut dead = Vec::new();
        self.for_each_shard_mut(|shard| {
            shard.space.split_off_into(belongs, &mut objects, &mut dead)
        });
        objects.sort_by(|a, b| a.0.cmp(&b.0));
        dead.sort_by(|a, b| a.0.cmp(&b.0));
        (objects, dead)
    }

    /// Crate-internal: whether every shard is held (the tiered engine's
    /// `absorb_runs` precondition check).
    pub(crate) fn holds_all_shards(&self) -> bool {
        self.holds_all()
    }

    /// Crate-internal: whether these guards lock `store` (the tiered
    /// engine hands out its memtable's guards and must reject foreign
    /// ones in `absorb_runs`).
    pub(crate) fn guards_store(&self, store: &ShardedStore<Ext>) -> bool {
        std::ptr::eq(self.store, store)
    }

    /// Crate-internal: a held shard's key space (tiered promotion).
    pub(crate) fn space_mut(&mut self, idx: usize) -> &mut KeySpace {
        &mut self.shard_mut(idx).space
    }

    /// Crate-internal: visits `(shard index, key space)` for every held
    /// shard in ascending order (tiered flush/absorb).
    pub(crate) fn for_each_space_mut(&mut self, mut f: impl FnMut(usize, &mut KeySpace)) {
        match &mut self.repr {
            GuardsRepr::None => {}
            GuardsRepr::One(s, g) => f(*s, &mut g.space),
            GuardsRepr::Many(v) => v.iter_mut().for_each(|(s, g)| f(*s, &mut g.space)),
        }
    }

    fn for_each_shard(&self, mut f: impl FnMut(&Shard<Ext>)) {
        match &self.repr {
            GuardsRepr::None => {}
            GuardsRepr::One(_, g) => f(g),
            GuardsRepr::Many(v) => v.iter().for_each(|(_, g)| f(g)),
        }
    }

    fn for_each_shard_mut(&mut self, mut f: impl FnMut(&mut Shard<Ext>)) {
        match &mut self.repr {
            GuardsRepr::None => {}
            GuardsRepr::One(_, g) => f(g),
            GuardsRepr::Many(v) => v.iter_mut().for_each(|(_, g)| f(g)),
        }
    }
}

/// The in-memory engine is the reference [`crate::StateStore`]: every key is
/// always resident, so lock-time readiness and `absorb_runs` are no-ops
/// and maintenance has nothing to do.
impl<Ext: Send> crate::StateStore<Ext> for ShardedStore<Ext> {
    fn num_shards(&self) -> usize {
        ShardedStore::num_shards(self)
    }

    fn shard_of(&self, key: &[u8]) -> usize {
        ShardedStore::shard_of(self, key)
    }

    fn log_head(&self) -> u64 {
        ShardedStore::log_head(self)
    }

    fn synced_pos(&self) -> u64 {
        ShardedStore::synced_pos(self)
    }

    fn has_unsynced(&self) -> bool {
        ShardedStore::has_unsynced(self)
    }

    fn len(&self) -> usize {
        ShardedStore::len(self)
    }

    fn get_object(&self, key: &[u8]) -> Option<Object> {
        ShardedStore::get_object(self, key)
    }

    fn lock_for<'a>(&'a self, shard_set: &[usize], _op: Option<&Op>) -> ShardGuards<'a, Ext> {
        self.lock(shard_set)
    }

    fn lock_all_for<'a>(&'a self, _op: Option<&Op>) -> ShardGuards<'a, Ext> {
        self.lock_all()
    }

    fn absorb_runs(&self, guards: &mut ShardGuards<'_, Ext>) {
        assert!(guards.guards_store(self), "absorb_runs with foreign guards");
        assert!(guards.holds_all_shards(), "absorb_runs requires all shards locked");
    }

    fn export(&self) -> StoreExport {
        ShardedStore::export(self)
    }

    fn export_shard(&self, shard: usize) -> StoreExport {
        ShardedStore::export_shard(self, shard)
    }

    fn maintain(&self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn put(store: &ShardedStore, k: &str, v: &str) -> OpResult {
        store.execute(&Op::Put { key: b(k), value: b(v) })
    }

    #[test]
    fn matches_single_space_store_sequentially() {
        let sharded: ShardedStore = ShardedStore::new(4);
        let single: ShardedStore = ShardedStore::new(1);
        let ops = [
            Op::Put { key: b("a"), value: b("1") },
            Op::Incr { key: b("c"), delta: 3 },
            Op::MultiPut { kvs: vec![(b("x"), b("1")), (b("y"), b("2")), (b("a"), b("3"))] },
            Op::Delete { key: b("a") },
            Op::Put { key: b("a"), value: b("2") },
            Op::HSet { key: b("h"), field: b("f"), value: b("v") },
            Op::ConditionalPut { key: b("x"), expected_version: 99, value: b("no") },
            Op::Get { key: b("a") },
        ];
        for op in &ops {
            assert_eq!(sharded.execute(op), single.execute(op), "diverged on {op:?}");
            assert_eq!(sharded.log_head(), single.log_head());
        }
        assert_eq!(sharded.export(), single.export());
        assert_eq!(sharded.len(), single.len());
    }

    #[test]
    fn empty_multi_put_writes_nothing_at_any_shard_count() {
        for shards in [1, 4] {
            let store: ShardedStore = ShardedStore::new(shards);
            let op = Op::MultiPut { kvs: vec![] };
            assert_eq!(store.execute(&op), OpResult::Written { version: 0 }, "{shards} shards");
            assert!(!store.touches_unsynced(&op));
            assert_eq!(store.log_head(), 0);
            assert!(store.is_empty());
        }
    }

    #[test]
    fn single_key_ops_touch_one_shard() {
        let store: ShardedStore = ShardedStore::new(8);
        put(&store, "k", "v");
        let shard = store.shard_of(b"k");
        // Every other shard stays empty.
        for i in 0..8 {
            let guards = store.lock(&[i]);
            let mut count = 0;
            guards.for_each_shard(|s| count = s.space.objects.len());
            assert_eq!(count, usize::from(i == shard));
        }
    }

    #[test]
    fn unsynced_frontier_is_global_across_shards() {
        let store: ShardedStore = ShardedStore::new(4);
        put(&store, "a", "1"); // pos 0
        put(&store, "b", "2"); // pos 1
        assert!(store.is_unsynced(b"a"));
        assert!(store.is_unsynced(b"b"));
        store.mark_synced(1);
        assert!(!store.is_unsynced(b"a"));
        assert!(store.is_unsynced(b"b"));
        store.mark_synced(2);
        assert!(!store.has_unsynced());
        // Deletion is a tracked mutation.
        store.execute(&Op::Delete { key: b("a") });
        assert!(store.is_unsynced(b"a"));
        store.mark_synced(3);
        assert!(!store.is_unsynced(b"a"));
    }

    #[test]
    fn guards_keep_check_and_execute_atomic() {
        let store: ShardedStore = ShardedStore::new(4);
        put(&store, "hot", "1");
        let op = Op::Put { key: b("hot"), value: b("2") };
        let set = op.key_hashes().shard_set(4);
        let mut guards = store.lock(&set);
        assert!(guards.touches_unsynced(&op));
        assert_eq!(guards.execute(&op), OpResult::Written { version: 2 });
    }

    #[test]
    #[should_panic(expected = "outside its lock set")]
    fn executing_outside_lock_set_panics() {
        let store: ShardedStore = ShardedStore::new(8);
        // Find two keys on different shards.
        let (a, bk) = (
            b("k0"),
            (1..100)
                .map(|i| format!("k{i}"))
                .find(|k| store.shard_of(k.as_bytes()) != store.shard_of(b"k0"))
                .unwrap(),
        );
        let op_a = Op::Put { key: a, value: b("v") };
        let set = op_a.key_hashes().shard_set(8);
        let mut guards = store.lock(&set);
        guards.execute(&Op::Put { key: Bytes::from(bk), value: b("v") });
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn descending_lock_order_is_rejected() {
        let store: ShardedStore = ShardedStore::new(4);
        let _ = store.lock(&[2, 1]);
    }

    #[test]
    fn import_mirrors_store_import() {
        let single: ShardedStore = ShardedStore::new(1);
        single.execute(&Op::Put { key: b("a"), value: b("1") });
        single.execute(&Op::Incr { key: b("c"), delta: 7 });
        single.execute(&Op::Delete { key: b("dead") });
        let (objects, dead) = single.export();
        let from_single: ShardedStore = ShardedStore::import(1, objects.clone(), dead.clone());
        let sharded: ShardedStore = ShardedStore::import(4, objects, dead);
        assert!(!sharded.has_unsynced(), "imported state must be fully synced");
        assert_eq!(sharded.log_head(), 1);
        assert_eq!(sharded.log_head(), from_single.log_head());
        assert_eq!(sharded.synced_pos(), from_single.synced_pos());
        assert_eq!(sharded.export(), from_single.export());
    }

    #[test]
    fn split_off_partitions_like_store() {
        let sharded: ShardedStore = ShardedStore::new(4);
        let single: ShardedStore = ShardedStore::new(1);
        for i in 0..32 {
            let op = Op::Put { key: b(&format!("k{i}")), value: b("v") };
            sharded.execute(&op);
            single.execute(&op);
        }
        sharded.execute(&Op::Delete { key: b("k0") });
        single.execute(&Op::Delete { key: b("k0") });
        sharded.mark_synced(sharded.log_head());
        single.mark_synced(single.log_head());
        let belongs = |h: KeyHash| h.0.is_multiple_of(2);
        assert_eq!(sharded.split_off(belongs), single.split_off(belongs));
        assert_eq!(sharded.export(), single.export());
    }

    #[test]
    #[should_panic(expected = "must sync before migrating")]
    fn split_off_with_unsynced_state_panics() {
        let store: ShardedStore = ShardedStore::new(2);
        put(&store, "a", "1");
        store.split_off(|_| true);
    }

    #[test]
    fn ext_state_lives_under_the_shard_lock() {
        let store: ShardedStore<Vec<u64>> = ShardedStore::new(4);
        let shard = store.shard_of(b"k");
        let op = Op::Put { key: b("k"), value: b("v") };
        let set = op.key_hashes().shard_set(4);
        let mut guards = store.lock(&set);
        guards.execute(&op);
        guards.ext_mut(shard).push(41);
        drop(guards);
        let mut all = store.lock_all();
        let mut seen = Vec::new();
        all.for_each_ext_mut(|idx, ext| {
            if !ext.is_empty() {
                seen.push((idx, ext.clone()));
            }
        });
        assert_eq!(seen, vec![(shard, vec![41])]);
    }

    #[test]
    fn concurrent_disjoint_writers_land_all_writes() {
        // Real threads: 4 writers on disjoint key ranges. Verifies Send/Sync
        // correctness and that global position allocation never double-issues.
        let store: ShardedStore = ShardedStore::new(8);
        const PER: u64 = 500;
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..PER {
                        let r = store.execute(&Op::Put {
                            key: Bytes::from(format!("w{t}-{i}")),
                            value: Bytes::from_static(b"v"),
                        });
                        assert_eq!(r, OpResult::Written { version: 1 });
                    }
                });
            }
        });
        assert_eq!(store.len(), 4 * PER as usize);
        assert_eq!(store.log_head(), 4 * PER);
        // All positions distinct: max write_pos < log_head and every object
        // unsynced until the frontier catches up.
        let (objects, _) = store.export();
        let mut positions: Vec<u64> = objects.iter().map(|(_, o)| o.write_pos).collect();
        positions.sort_unstable();
        positions.dedup();
        assert_eq!(positions.len(), 4 * PER as usize, "duplicate log positions");
        store.mark_synced(store.log_head());
        assert!(!store.has_unsynced());
    }

    #[test]
    fn concurrent_same_key_writers_serialize() {
        let store: ShardedStore = ShardedStore::new(8);
        const PER: u64 = 300;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let store = &store;
                scope.spawn(move || {
                    for _ in 0..PER {
                        store.execute(&Op::Incr { key: b("ctr"), delta: 1 });
                    }
                });
            }
        });
        assert_eq!(
            store.execute(&Op::Get { key: b("ctr") }),
            OpResult::Value(Some(Bytes::from((4 * PER).to_string())))
        );
    }

    #[test]
    fn execution_proceeds_while_another_shard_is_held() {
        // The functional lock-granularity guard: while one shard's lock is
        // HELD, an execute on a different shard must still complete. If a
        // change ever reintroduces a global lock inside `ShardedStore` (the
        // regression the contention benches quantify but, being a model,
        // cannot fail on), the spawned execute blocks forever and this
        // test times out instead of passing.
        let store: ShardedStore = ShardedStore::new(8);
        let held = store.shard_of(b"held-key");
        let other_key = (0..100)
            .map(|i| format!("free-{i}"))
            .find(|k| store.shard_of(k.as_bytes()) != held)
            .expect("some key routes elsewhere");
        let guards = store.lock(&[held]);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let r = store.execute(&Op::Put {
                    key: Bytes::from(other_key.clone()),
                    value: Bytes::from_static(b"v"),
                });
                done_tx.send(r).unwrap();
            });
            let r = done_rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("execute on a free shard must not wait for a held one");
            assert_eq!(r, OpResult::Written { version: 1 });
            drop(guards);
        });
    }
}
