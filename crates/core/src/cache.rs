//! Shared evaluation cache and structural hashing.
//!
//! Every candidate the search engine considers is scheduled and estimated
//! — by far the dominant cost of a FACT run. Identical candidates recur
//! constantly: within one search (different transformation paths reach
//! the same CDFG), across the per-block region searches of one job, and
//! across jobs submitted to `factd` (re-optimizing the same design, or
//! sweeping allocations that share most candidates). [`EvalCache`]
//! memoizes `(CDFG, evaluation context) → score` behind a sharded lock so
//! concurrent jobs share results without contending on one mutex.
//!
//! The key is a 64-bit [`structural_hash`] of the candidate combined with
//! a caller-supplied *context key* covering everything else the score
//! depends on (allocation, objective, scheduler options, traces — see
//! [`ContextHasher`]). The same hash replaces the old printed-IR
//! signature used for deduplication inside `Apply_transforms`, which
//! allocated an entire pretty-printed program per candidate per move.

use crate::bounded::BoundedMap;
use crate::expand::ExpansionMemo;
use fact_ir::{Function, OpKind, Terminator};
use fact_prng::mix64;
use fact_sched::{ScheduleError, SchedulePlan};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How many schedule plans the [`EvalCache`] holds at most (DESIGN
/// §10.6). A plan of a §5 suite design holds about 0.9 KB (measured with
/// a counting allocator: after the 18 paper-sized suite jobs, 384 held
/// plans took 340 KiB), so the cap bounds plans near 290 KiB. Jobs of
/// four-vector traces over GCD, FIR, IGF and PPS schedule about 270
/// distinct designs, and jobs of 64 to 6,144 vectors over Test2,
/// SINTRAN, FIR and GCD about 350. A cap below a workload's designs
/// makes its jobs rebuild the plans that fall out, so the cap sits near
/// both; a larger one costs every server memory for plans that
/// cache-answered jobs never read.
pub const PLAN_CAPACITY: usize = 320;

/// A held plan, or the error building it gave (a design the allocation
/// cannot realize fails the same way for every profile); one pointer,
/// so a held plan costs the map one word.
pub(crate) type PlanOutcome = Arc<Result<SchedulePlan, ScheduleError>>;

/// An incremental 64-bit hasher over words, built on the SplitMix64
/// finalizer. Not cryptographic; collision odds across the ~10^3..10^6
/// candidates of a search are negligible for a 64-bit state.
#[derive(Clone, Debug)]
pub struct ContextHasher {
    h: u64,
}

impl ContextHasher {
    /// Starts a hash chain from a domain-separation constant.
    pub fn new(domain: u64) -> Self {
        ContextHasher { h: mix64(domain) }
    }

    /// Absorbs one word.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.h = mix64(self.h.rotate_left(7) ^ v.wrapping_add(0x9E37_79B9_7F4A_7C15));
        self
    }

    /// Absorbs a signed word.
    pub fn write_i64(&mut self, v: i64) -> &mut Self {
        self.write_u64(v as u64)
    }

    /// Absorbs a float by its bit pattern.
    pub fn write_f64(&mut self, v: f64) -> &mut Self {
        self.write_u64(v.to_bits())
    }

    /// Absorbs a byte string (length-prefixed, so `("ab","c")` and
    /// `("a","bc")` differ).
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.write_u64(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(w));
        }
        self
    }

    /// Finishes the chain.
    pub fn finish(&self) -> u64 {
        mix64(self.h)
    }
}

/// A 64-bit structural hash of a CDFG.
///
/// Two functions hash equal iff they have the same block structure,
/// operation kinds, dataflow (operand references are encoded by position,
/// so arena layout and dead/tombstoned operations do not affect the
/// hash), terminators, and memory sizes. Cosmetic block names are
/// ignored; the function name is ignored too, since the score of a
/// candidate does not depend on it.
///
/// The hash is a combination of [`block_hashes`] plus the memory sizes,
/// so whole-function and per-block structural equality are decided by
/// the same pass.
pub fn structural_hash(f: &Function) -> u64 {
    let mut h = ContextHasher::new(0xFAC7_CDF6);
    let sub = block_hashes(f);
    h.write_u64(sub.len() as u64);
    for s in sub {
        h.write_u64(s);
    }
    h.write_u64(f.memories().count() as u64);
    for (_, m) in f.memories() {
        h.write_u64(m.size as u64);
    }
    h.finish()
}

/// A 64-bit hash of everything `Function: PartialEq` compares: the
/// name, the entry block, every block in arena order (its op list by
/// arena id, terminator and display name), every arena op (detached
/// ones too) with its kind and label, and the memories by name and size.
///
/// Unlike [`structural_hash`], which equates functions that differ only
/// in arena layout, this tells apart functions a transformation could
/// expand differently: op ids appear in candidate descriptions, so two
/// structurally equal parents can still have different neighbourhoods.
/// It is the root identity of the expansion memo (DESIGN §10.5).
pub fn exact_hash(f: &Function) -> u64 {
    let mut h = ContextHasher::new(0xFAC7_E8AC);
    let id = |h: &mut ContextHasher, v: fact_ir::OpId| {
        h.write_u64(v.index() as u64);
    };
    h.write_bytes(f.name().as_bytes())
        .write_u64(f.entry().index() as u64)
        .write_u64(f.num_blocks() as u64);
    for b in f.block_ids() {
        let blk = f.block(b);
        h.write_u64(blk.ops.len() as u64);
        for &op in &blk.ops {
            id(&mut h, op);
        }
        match &blk.term {
            Terminator::Jump(t) => {
                h.write_u64(20).write_u64(t.index() as u64);
            }
            Terminator::Branch {
                cond,
                on_true,
                on_false,
            } => {
                h.write_u64(21);
                id(&mut h, *cond);
                h.write_u64(on_true.index() as u64)
                    .write_u64(on_false.index() as u64);
            }
            Terminator::Return(v) => {
                h.write_u64(22)
                    .write_u64(v.map_or(0, |v| v.index() as u64 + 1));
            }
        }
        match &blk.name {
            Some(name) => h.write_u64(1).write_bytes(name.as_bytes()),
            None => h.write_u64(0),
        };
    }
    h.write_u64(f.num_ops() as u64);
    for i in 0..f.num_ops() {
        let op = f.op(fact_ir::OpId::new(i));
        match &op.kind {
            OpKind::Const(c) => {
                h.write_u64(1).write_i64(*c);
            }
            OpKind::Input(name) => {
                h.write_u64(2).write_bytes(name.as_bytes());
            }
            OpKind::Bin(bin, a, b) => {
                h.write_u64(3).write_u64(*bin as u64);
                id(&mut h, *a);
                id(&mut h, *b);
            }
            OpKind::Un(un, a) => {
                h.write_u64(4).write_u64(*un as u64);
                id(&mut h, *a);
            }
            OpKind::Mux {
                cond,
                on_true,
                on_false,
            } => {
                h.write_u64(5);
                id(&mut h, *cond);
                id(&mut h, *on_true);
                id(&mut h, *on_false);
            }
            OpKind::Phi(incoming) => {
                h.write_u64(6).write_u64(incoming.len() as u64);
                for (from, v) in incoming {
                    h.write_u64(from.index() as u64);
                    id(&mut h, *v);
                }
            }
            OpKind::Load { mem, addr } => {
                h.write_u64(7).write_u64(mem.index() as u64);
                id(&mut h, *addr);
            }
            OpKind::Store { mem, addr, value } => {
                h.write_u64(8).write_u64(mem.index() as u64);
                id(&mut h, *addr);
                id(&mut h, *value);
            }
            OpKind::Output(name, v) => {
                h.write_u64(9).write_bytes(name.as_bytes());
                id(&mut h, *v);
            }
        }
        match &op.label {
            Some(label) => h.write_u64(1).write_bytes(label.as_bytes()),
            None => h.write_u64(0),
        };
    }
    h.write_u64(f.memories().count() as u64);
    for (_, m) in f.memories() {
        h.write_bytes(m.name.as_bytes()).write_u64(m.size as u64);
    }
    h.finish()
}

/// Per-block structural sub-hashes: entry `i` covers block `i`'s
/// operations and terminator.
///
/// Operand references are encoded positionally — in-block position for
/// local references, `(block index, position)` for cross-block ones — so
/// a rewrite confined to one block changes only that block's sub-hash
/// (unless it moves operations other blocks refer to). This is the
/// per-block keying behind incremental evaluation: [`structural_hash`]
/// combines these sub-hashes, and the scheduler's fragment memo reuses
/// list schedules for blocks whose structure is unchanged between
/// candidates.
pub fn block_hashes(f: &Function) -> Vec<u64> {
    // Position map: arena id -> (owning block, position within block).
    // Arena ids themselves are allocation order, which differs between
    // structurally identical candidates produced by different
    // transformation paths, so they never enter a hash directly (except
    // for detached ops, which verified IR does not reference).
    const DETACHED: (u64, u64) = (u64::MAX, u64::MAX);
    let mut place: Vec<(u64, u64)> = vec![DETACHED; f.num_ops()];
    for b in f.block_ids() {
        for (i, &op) in f.block(b).ops.iter().enumerate() {
            place[op.index()] = (b.index() as u64, i as u64);
        }
    }

    let mut out = Vec::with_capacity(f.num_blocks());
    for b in f.block_ids() {
        let blk = f.block(b);
        let here = b.index() as u64;
        let mut h = ContextHasher::new(0xFAC7_B10C);
        let val = |h: &mut ContextHasher, v: fact_ir::OpId| {
            let (owner, pos) = place[v.index()];
            if (owner, pos) == DETACHED {
                h.write_u64(2).write_u64(v.index() as u64);
            } else if owner == here {
                h.write_u64(0).write_u64(pos);
            } else {
                h.write_u64(1).write_u64(owner).write_u64(pos);
            }
        };
        h.write_u64(blk.ops.len() as u64);
        for &op in &blk.ops {
            match &f.op(op).kind {
                OpKind::Const(c) => {
                    h.write_u64(1).write_i64(*c);
                }
                OpKind::Input(name) => {
                    h.write_u64(2).write_bytes(name.as_bytes());
                }
                OpKind::Bin(bin, a, bb) => {
                    h.write_u64(3).write_u64(*bin as u64);
                    val(&mut h, *a);
                    val(&mut h, *bb);
                }
                OpKind::Un(un, a) => {
                    h.write_u64(4).write_u64(*un as u64);
                    val(&mut h, *a);
                }
                OpKind::Mux {
                    cond,
                    on_true,
                    on_false,
                } => {
                    h.write_u64(5);
                    val(&mut h, *cond);
                    val(&mut h, *on_true);
                    val(&mut h, *on_false);
                }
                OpKind::Phi(incoming) => {
                    h.write_u64(6).write_u64(incoming.len() as u64);
                    for (from, v) in incoming {
                        h.write_u64(from.index() as u64);
                        val(&mut h, *v);
                    }
                }
                OpKind::Load { mem, addr } => {
                    h.write_u64(7).write_u64(mem.index() as u64);
                    val(&mut h, *addr);
                }
                OpKind::Store { mem, addr, value } => {
                    h.write_u64(8).write_u64(mem.index() as u64);
                    val(&mut h, *addr);
                    val(&mut h, *value);
                }
                OpKind::Output(name, v) => {
                    h.write_u64(9).write_bytes(name.as_bytes());
                    val(&mut h, *v);
                }
            }
        }
        match &blk.term {
            Terminator::Jump(t) => {
                h.write_u64(20).write_u64(t.index() as u64);
            }
            Terminator::Branch {
                cond,
                on_true,
                on_false,
            } => {
                h.write_u64(21);
                val(&mut h, *cond);
                h.write_u64(on_true.index() as u64)
                    .write_u64(on_false.index() as u64);
            }
            Terminator::Return(v) => {
                h.write_u64(22);
                match v {
                    Some(v) => {
                        h.write_u64(1);
                        val(&mut h, *v);
                    }
                    None => {
                        h.write_u64(0);
                    }
                };
            }
        }
        out.push(h.finish());
    }
    out
}

/// A memoized evaluation outcome. `None` records an *invalid* candidate
/// (failed equivalence check, unschedulable under the allocation, …) so
/// the failure is not recomputed either.
pub type CachedScore = Option<f64>;

/// Point-in-time cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when the cache was never consulted).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A sharded, thread-safe memoization table for candidate evaluations.
///
/// Sharding by key keeps lock contention low when `factd`'s worker pool
/// and the parallel neighborhood expansion hammer the cache from many
/// threads at once. Evaluation itself happens *outside* the shard lock;
/// two threads racing on the same fresh key may both evaluate (the
/// second insert is a no-op), which is wasted work but never wrong —
/// evaluation is deterministic per key.
///
/// The cache also holds the [`ExpansionMemo`] ([`EvalCache::expansions`])
/// and the schedule plans (DESIGN §10.6), so every run given a cache
/// shares memoized neighbourhoods and plans too.
///
/// # Examples
///
/// ```
/// use fact_core::cache::EvalCache;
/// let cache = EvalCache::new(4);
/// let (score, hit) = cache.get_or_eval(42, || Some(1.5));
/// assert_eq!((score, hit), (Some(1.5), false));
/// let (score, hit) = cache.get_or_eval(42, || unreachable!());
/// assert_eq!((score, hit), (Some(1.5), true));
/// assert_eq!(cache.stats().hits, 1);
/// ```
pub struct EvalCache {
    shards: Box<[Mutex<HashMap<u64, CachedScore>>]>,
    mask: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    expansions: ExpansionMemo,
    /// Schedule plans by design identity × scheduling context, one
    /// weight unit each.
    plans: BoundedMap<PlanOutcome>,
}

impl EvalCache {
    /// Creates a cache with `shards` shards (rounded up to a power of
    /// two, minimum 1).
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        EvalCache {
            shards: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            mask: (n - 1) as u64,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            expansions: ExpansionMemo::default(),
            plans: BoundedMap::with_capacity(PLAN_CAPACITY),
        }
    }

    /// A cache whose expansion memo holds at most `records` records.
    #[cfg(test)]
    pub(crate) fn with_memo_capacity(records: usize) -> Self {
        EvalCache {
            expansions: ExpansionMemo::with_capacity(records),
            ..EvalCache::default()
        }
    }

    /// A cache holding at most `plans` schedule plans.
    #[cfg(test)]
    pub(crate) fn with_plan_capacity(plans: usize) -> Self {
        EvalCache {
            plans: BoundedMap::with_capacity(plans),
            ..EvalCache::default()
        }
    }

    /// The memoized neighbourhoods the search expands through (DESIGN
    /// §10.5). Not part of [`EvalCache::save_snapshot`]'s snapshots.
    pub fn expansions(&self) -> &ExpansionMemo {
        &self.expansions
    }

    /// The schedule plans held (DESIGN §10.6). Not part of
    /// [`EvalCache::save_snapshot`]'s snapshots.
    pub(crate) fn plans(&self) -> &BoundedMap<PlanOutcome> {
        &self.plans
    }

    /// Schedule plans held.
    pub fn plans_held(&self) -> usize {
        self.plans.len()
    }

    fn shard(&self, key: u64) -> &Mutex<HashMap<u64, CachedScore>> {
        // Mix before masking: keys are already well-mixed hashes, but a
        // cheap remix keeps shard choice independent of map bucketing.
        &self.shards[(mix64(key) & self.mask) as usize]
    }

    /// Looks up `key`, counting a hit or miss.
    pub fn lookup(&self, key: u64) -> Option<CachedScore> {
        let found = self.shard(key).lock().unwrap().get(&key).copied();
        match found {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores `score` under `key`. First write wins on a race (both
    /// writers computed the same value).
    pub fn insert(&self, key: u64, score: CachedScore) {
        self.shard(key).lock().unwrap().entry(key).or_insert(score);
    }

    /// Returns the cached score for `key`, or computes it with `eval`
    /// (outside any lock) and stores it. The second tuple element is
    /// `true` on a cache hit.
    pub fn get_or_eval(&self, key: u64, eval: impl FnOnce() -> CachedScore) -> (CachedScore, bool) {
        if let Some(v) = self.lookup(key) {
            return (v, true);
        }
        let v = eval();
        self.insert(key, v);
        (v, false)
    }

    /// Number of entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }

    /// Drops all entries, memoized neighbourhoods and schedule plans
    /// (counters are preserved).
    pub fn clear(&self) {
        for s in self.shards.iter() {
            s.lock().unwrap().clear();
        }
        self.expansions.clear();
        self.plans.clear();
    }

    /// All entries, sorted by key — the deterministic iteration order the
    /// snapshot writer uses (same contents ⇒ byte-identical snapshot).
    pub fn entries_sorted(&self) -> Vec<(u64, CachedScore)> {
        let mut out: Vec<(u64, CachedScore)> = Vec::with_capacity(self.len());
        for s in self.shards.iter() {
            out.extend(s.lock().unwrap().iter().map(|(&k, &v)| (k, v)));
        }
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// Writes every entry to `path` as a crash-safe snapshot: the bytes
    /// go to a sibling `*.tmp` file first, are fsynced, and only then
    /// renamed over `path` (plus a best-effort directory fsync), so a
    /// crash at any instant leaves either the old snapshot or the new
    /// one — never a half-written file under the real name. Returns the
    /// number of entries written.
    pub fn save_snapshot(&self, path: &Path) -> io::Result<usize> {
        let entries = self.entries_sorted();
        let mut buf = Vec::with_capacity(SNAPSHOT_MAGIC.len() + entries.len() * RECORD_BYTES);
        buf.extend_from_slice(SNAPSHOT_MAGIC);
        for &(key, score) in &entries {
            let payload = encode_record(key, score);
            buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            buf.extend_from_slice(&payload);
            buf.extend_from_slice(&record_checksum(&payload).to_le_bytes());
        }
        let tmp = snapshot_tmp_path(path);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&buf)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        // Persist the rename itself; not all platforms allow opening a
        // directory for sync, so this is best-effort.
        if let Some(dir) = path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(entries.len())
    }

    /// Loads a snapshot previously written by [`EvalCache::save_snapshot`],
    /// inserting every record that survives validation.
    ///
    /// Corruption handling: records are validated in order (length
    /// prefix, payload checksum); the first invalid or incomplete record
    /// ends the load, keeping everything before it — a torn tail from a
    /// crash or a bit-flip costs only the damaged suffix, never the whole
    /// file. When a corrupt tail is detected the file is truncated back
    /// to the last valid record (best-effort) so the damage does not
    /// grow. A wrong magic loads zero entries but is not an I/O error.
    pub fn load_snapshot(&self, path: &Path) -> io::Result<SnapshotLoad> {
        let data = fs::read(path)?;
        let mut loaded = 0usize;
        let mut valid_len = 0usize;
        if data.len() >= SNAPSHOT_MAGIC.len() && &data[..SNAPSHOT_MAGIC.len()] == SNAPSHOT_MAGIC {
            let mut pos = SNAPSHOT_MAGIC.len();
            valid_len = pos;
            while let Some(len_bytes) = data.get(pos..pos + 4) {
                let len = u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize;
                if len != RECORD_PAYLOAD {
                    break; // unknown record shape: treat as corruption
                }
                let Some(payload) = data.get(pos + 4..pos + 4 + len) else {
                    break;
                };
                let Some(sum_bytes) = data.get(pos + 4 + len..pos + 4 + len + 8) else {
                    break;
                };
                let sum = u64::from_le_bytes(sum_bytes.try_into().unwrap());
                if sum != record_checksum(payload) {
                    break;
                }
                let (key, score) = decode_record(payload);
                self.insert(key, score);
                loaded += 1;
                pos += 4 + len + 8;
                valid_len = pos;
            }
        }
        let truncated = valid_len < data.len();
        if truncated && valid_len > 0 {
            // Cut the corrupt tail off so the next writer starts from a
            // clean prefix; losing this truncation to an error is fine —
            // the next load stops at the same place.
            if let Ok(f) = OpenOptions::new().write(true).open(path) {
                let _ = f.set_len(valid_len as u64);
            }
        }
        Ok(SnapshotLoad {
            entries: loaded,
            truncated,
        })
    }
}

/// Outcome of [`EvalCache::load_snapshot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotLoad {
    /// Records that validated and were inserted.
    pub entries: usize,
    /// Whether a corrupt or torn tail was detected (and cut off).
    pub truncated: bool,
}

/// Snapshot file magic + format version. Bump the trailing digit on any
/// incompatible record-format change, and on any change in what a stored
/// score means — a file whose scores a different evaluation produced
/// must not answer for this one. A mismatch loads as empty.
///
/// Version 2: candidates are accepted only when proved equivalent to
/// their parent; version 1's scores include candidates accepted by
/// simulation alone.
const SNAPSHOT_MAGIC: &[u8; 8] = b"FACTEVC2";
/// Record payload: key u64 + presence tag u8 + score f64 bits.
const RECORD_PAYLOAD: usize = 17;
/// Full on-disk record: u32 length prefix + payload + u64 checksum.
const RECORD_BYTES: usize = 4 + RECORD_PAYLOAD + 8;

/// The sibling temp file the atomic writer stages into.
pub fn snapshot_tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

fn encode_record(key: u64, score: CachedScore) -> [u8; RECORD_PAYLOAD] {
    let mut payload = [0u8; RECORD_PAYLOAD];
    payload[..8].copy_from_slice(&key.to_le_bytes());
    match score {
        Some(v) => {
            payload[8] = 1;
            payload[9..].copy_from_slice(&v.to_bits().to_le_bytes());
        }
        None => payload[8] = 0,
    }
    payload
}

fn decode_record(payload: &[u8]) -> (u64, CachedScore) {
    let key = u64::from_le_bytes(payload[..8].try_into().unwrap());
    let score = (payload[8] == 1)
        .then(|| f64::from_bits(u64::from_le_bytes(payload[9..17].try_into().unwrap())));
    (key, score)
}

fn record_checksum(payload: &[u8]) -> u64 {
    ContextHasher::new(0xFAC7_54A9)
        .write_bytes(payload)
        .finish()
}

impl Default for EvalCache {
    /// 16 shards: comfortably more than the worker-pool sizes `factd`
    /// runs with, so shard collisions between threads are rare.
    fn default() -> Self {
        EvalCache::new(16)
    }
}

impl std::fmt::Debug for EvalCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalCache")
            .field("shards", &self.shards.len())
            .field("stats", &self.stats())
            .field("expansions", &self.expansions)
            .field("plans", &self.plans.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fact_lang::compile;
    use std::sync::Arc;

    #[test]
    fn hash_is_stable_across_compilations() {
        let src = "proc f(a, b, c) { out y = a * b + a * c; }";
        let f1 = compile(src).unwrap();
        let f2 = compile(src).unwrap();
        assert_eq!(structural_hash(&f1), structural_hash(&f2));
    }

    #[test]
    fn hash_distinguishes_different_programs() {
        let f1 = compile("proc f(a, b) { out y = a * b; }").unwrap();
        let f2 = compile("proc f(a, b) { out y = a + b; }").unwrap();
        let f3 = compile("proc f(a, b) { out y = b * a; }").unwrap();
        assert_ne!(structural_hash(&f1), structural_hash(&f2));
        // Operand order is structural: a*b and b*a are distinct CDFGs
        // (the commutativity *transformation* relates them).
        assert_ne!(structural_hash(&f1), structural_hash(&f3));
    }

    #[test]
    fn hash_ignores_arena_layout() {
        use fact_ir::{BinOp, Op, OpKind};
        // Same structure, one arena with a detached (dead) op between
        // live ones.
        let build = |with_dead: bool| {
            let mut f = Function::new("g");
            let e = f.entry();
            let a = f.emit_input(e, "a");
            if with_dead {
                let _ = f.emit_detached(Op::new(OpKind::Const(99)));
            }
            let b = f.emit_input(e, "b");
            let s = f.emit_bin(e, BinOp::Add, a, b);
            f.emit_output(e, "y", s);
            f
        };
        assert_eq!(
            structural_hash(&build(false)),
            structural_hash(&build(true))
        );
    }

    #[test]
    fn hash_sees_memory_sizes_and_terminators() {
        let f1 = compile("proc f(a) { array x[8]; x[0] = a; out y = x[0]; }").unwrap();
        let f2 = compile("proc f(a) { array x[16]; x[0] = a; out y = x[0]; }").unwrap();
        assert_ne!(structural_hash(&f1), structural_hash(&f2));
    }

    #[test]
    fn block_sub_hashes_localize_single_block_edits() {
        let before = compile(
            "proc f(a, c) { var y = 0; if (c > 0) { y = a + 1; } else { y = a - 1; } out r = y; }",
        )
        .unwrap();
        let after = compile(
            "proc f(a, c) { var y = 0; if (c > 0) { y = a + 1; } else { y = a - 2; } out r = y; }",
        )
        .unwrap();
        let (hb, ha) = (block_hashes(&before), block_hashes(&after));
        assert_eq!(hb.len(), ha.len());
        let differing = hb.iter().zip(&ha).filter(|(x, y)| x != y).count();
        // Only the rewritten else-arm differs; the entry, then-arm, and
        // join blocks keep their sub-hashes (the join's phi refers to the
        // changed op by position, which is unchanged).
        assert_eq!(differing, 1, "edit must stay local: {hb:?} vs {ha:?}");
        assert_ne!(structural_hash(&before), structural_hash(&after));
    }

    #[test]
    fn cache_hit_miss_accounting() {
        let c = EvalCache::new(2);
        assert_eq!(c.lookup(1), None);
        c.insert(1, Some(2.0));
        assert_eq!(c.lookup(1), Some(Some(2.0)));
        c.insert(2, None); // invalid candidates memoize too
        assert_eq!(c.lookup(2), Some(None));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 1, 2));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn get_or_eval_runs_once() {
        let c = EvalCache::default();
        let mut calls = 0;
        let (v, hit) = c.get_or_eval(7, || {
            calls += 1;
            Some(3.0)
        });
        assert_eq!((v, hit, calls), (Some(3.0), false, 1));
        let (v, hit) = c.get_or_eval(7, || {
            calls += 1;
            Some(3.0)
        });
        assert_eq!((v, hit, calls), (Some(3.0), true, 1));
    }

    #[test]
    fn cache_is_shared_across_threads() {
        let c = Arc::new(EvalCache::new(8));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for k in 0..256u64 {
                    c.get_or_eval(k, || Some((k + t) as f64));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // All keys present; every later lookup hits.
        assert_eq!(c.len(), 256);
        for k in 0..256u64 {
            assert!(c.lookup(k).is_some());
        }
    }

    #[test]
    fn clear_preserves_counters() {
        let c = EvalCache::new(1);
        c.insert(1, Some(1.0));
        c.lookup(1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats().hits, 1);
    }

    /// A unique temp path per test; cleaned up by the returned guard.
    struct TempPath(std::path::PathBuf);
    impl TempPath {
        fn new(tag: &str) -> Self {
            let p = std::env::temp_dir().join(format!(
                "fact-cache-{}-{}.snap",
                std::process::id(),
                tag
            ));
            let _ = std::fs::remove_file(&p);
            TempPath(p)
        }
    }
    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
            let _ = std::fs::remove_file(snapshot_tmp_path(&self.0));
        }
    }

    fn seeded_cache(n: u64, seed: u64) -> EvalCache {
        let c = EvalCache::new(4);
        for i in 0..n {
            let key = mix64(seed ^ i);
            // Mix in some invalid-candidate records (score = None).
            let score = (i % 5 != 0).then(|| (mix64(key) >> 11) as f64 / 1e6);
            c.insert(key, score);
        }
        c
    }

    #[test]
    fn snapshot_roundtrip_preserves_entries() {
        let path = TempPath::new("roundtrip");
        let c = seeded_cache(100, 7);
        let written = c.save_snapshot(&path.0).unwrap();
        assert_eq!(written, 100);
        assert!(
            !snapshot_tmp_path(&path.0).exists(),
            "tmp staging file must not survive a successful save"
        );
        let warm = EvalCache::new(2);
        let load = warm.load_snapshot(&path.0).unwrap();
        assert_eq!(
            load,
            SnapshotLoad {
                entries: 100,
                truncated: false
            }
        );
        assert_eq!(warm.entries_sorted(), c.entries_sorted());
    }

    #[test]
    fn version_one_snapshots_load_as_empty() {
        let path = TempPath::new("v1");
        seeded_cache(10, 5).save_snapshot(&path.0).unwrap();
        let mut bytes = std::fs::read(&path.0).unwrap();
        assert_eq!(&bytes[..8], SNAPSHOT_MAGIC);
        bytes[..8].copy_from_slice(b"FACTEVC1");
        std::fs::write(&path.0, &bytes).unwrap();
        let warm = EvalCache::new(2);
        let load = warm.load_snapshot(&path.0).unwrap();
        assert_eq!(load.entries, 0);
        assert!(warm.is_empty());
    }

    #[test]
    fn snapshot_is_deterministic_bytes() {
        let (p1, p2) = (TempPath::new("det1"), TempPath::new("det2"));
        // Same contents inserted in different orders, different shard
        // counts: identical bytes on disk.
        let a = seeded_cache(64, 3);
        let b = EvalCache::new(16);
        for (k, s) in a.entries_sorted().into_iter().rev() {
            b.insert(k, s);
        }
        a.save_snapshot(&p1.0).unwrap();
        b.save_snapshot(&p2.0).unwrap();
        assert_eq!(std::fs::read(&p1.0).unwrap(), std::fs::read(&p2.0).unwrap());
    }

    #[test]
    fn truncated_snapshot_loads_the_valid_prefix() {
        let path = TempPath::new("trunc");
        let c = seeded_cache(50, 11);
        c.save_snapshot(&path.0).unwrap();
        let full = std::fs::read(&path.0).unwrap();
        let original = c.entries_sorted();
        // Cut at every byte offset across the first few records and a
        // spread of later ones: the load must never error, and must
        // recover exactly the records whose bytes fully survived.
        let offsets: Vec<usize> = (0..full.len()).step_by(7).collect();
        for cut in offsets {
            std::fs::write(&path.0, &full[..cut]).unwrap();
            let warm = EvalCache::new(1);
            let load = warm.load_snapshot(&path.0).unwrap();
            let expect = cut.saturating_sub(SNAPSHOT_MAGIC.len()) / RECORD_BYTES;
            assert_eq!(load.entries, expect, "cut at {cut}");
            assert_eq!(warm.entries_sorted()[..], original[..expect]);
            // A partial trailing record (or a damaged magic) marks the
            // load truncated; an empty file or a clean record boundary
            // does not.
            let clean = cut == 0
                || (cut >= SNAPSHOT_MAGIC.len()
                    && (cut - SNAPSHOT_MAGIC.len()).is_multiple_of(RECORD_BYTES));
            assert_eq!(load.truncated, !clean, "cut at {cut}");
            if load.entries > 0 {
                let remaining = std::fs::metadata(&path.0).unwrap().len() as usize;
                assert_eq!(remaining, SNAPSHOT_MAGIC.len() + expect * RECORD_BYTES);
            }
        }
    }

    #[test]
    fn bit_flips_never_load_garbage() {
        let path = TempPath::new("flip");
        let c = seeded_cache(40, 23);
        c.save_snapshot(&path.0).unwrap();
        let full = std::fs::read(&path.0).unwrap();
        let original = c.entries_sorted();
        let mut rng_state = 0x00C0_FFEE_u64;
        for _ in 0..200 {
            let byte = (fact_prng::splitmix64(&mut rng_state) as usize) % full.len();
            let bit = (fact_prng::splitmix64(&mut rng_state) % 8) as u8;
            let mut bytes = full.clone();
            bytes[byte] ^= 1 << bit;
            std::fs::write(&path.0, &bytes).unwrap();
            let warm = EvalCache::new(1);
            let load = warm.load_snapshot(&path.0).unwrap();
            // Every loaded record must be an exact prefix of the
            // original set — a flipped key, score, length, or checksum
            // must stop the load, never invent an entry.
            let got = warm.entries_sorted();
            assert!(got.len() <= original.len());
            assert_eq!(
                got[..],
                original[..got.len()],
                "flip at byte {byte} bit {bit}"
            );
            if byte >= SNAPSHOT_MAGIC.len() {
                // Only the record containing the flip (and its suffix)
                // may be lost.
                let record = (byte - SNAPSHOT_MAGIC.len()) / RECORD_BYTES;
                assert_eq!(load.entries, record, "flip at byte {byte}");
            } else {
                assert_eq!(load.entries, 0, "magic flip at byte {byte}");
            }
        }
    }

    #[test]
    fn wrong_magic_loads_empty_without_error() {
        let path = TempPath::new("magic");
        std::fs::write(&path.0, b"NOTACACH plus trailing junk").unwrap();
        let warm = EvalCache::new(1);
        let load = warm.load_snapshot(&path.0).unwrap();
        assert_eq!(load.entries, 0);
        assert!(load.truncated);
        assert!(warm.is_empty());
    }

    #[test]
    fn missing_snapshot_is_an_io_error() {
        let path = TempPath::new("missing");
        let warm = EvalCache::new(1);
        let err = warm.load_snapshot(&path.0).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }

    #[test]
    fn stale_tmp_file_does_not_block_save_or_load() {
        let path = TempPath::new("staletmp");
        // Simulate a crash mid-snapshot: a half-written tmp next to a
        // valid snapshot. The tmp is simply overwritten by the next save
        // and never read by load.
        let c = seeded_cache(10, 5);
        c.save_snapshot(&path.0).unwrap();
        std::fs::write(snapshot_tmp_path(&path.0), b"torn half-writ").unwrap();
        let warm = EvalCache::new(1);
        assert_eq!(warm.load_snapshot(&path.0).unwrap().entries, 10);
        assert_eq!(c.save_snapshot(&path.0).unwrap(), 10);
        assert!(!snapshot_tmp_path(&path.0).exists());
    }

    #[test]
    fn context_hasher_separates_streams() {
        let a = ContextHasher::new(1)
            .write_bytes(b"ab")
            .write_bytes(b"c")
            .finish();
        let b = ContextHasher::new(1)
            .write_bytes(b"a")
            .write_bytes(b"bc")
            .finish();
        assert_ne!(a, b);
        let c = ContextHasher::new(2)
            .write_bytes(b"ab")
            .write_bytes(b"c")
            .finish();
        assert_ne!(a, c);
    }
}
