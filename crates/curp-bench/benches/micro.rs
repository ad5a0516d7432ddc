//! Criterion micro-benchmarks of the protocol's fast-path components:
//! witness record/gc, commutativity checks, store execution, and the wire
//! codec. These are real wall-clock numbers (no simulation).
//!
//! Several benches pin the allocation-free fast path (see EXPERIMENTS.md,
//! "Perf trajectory"): the `store_*_1k_*` collection benches assert-by-
//! trajectory that typed mutations stay O(1) amortized (the
//! `*_clone_baseline` twin measures the clone-per-mutation alternative),
//! `witness_record_reject_alloc_free` pins the no-allocation reject path,
//! and `codec_decode_update` measures the zero-copy (`from_bytes_shared`)
//! decode the transports use (`codec_decode_update_copy` keeps the copying
//! slice path for comparison).
//!
//! Run `--smoke` for a seconds-long CI pass, `--json=BENCH_micro.json` to
//! emit the machine-readable trajectory file.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use curp_core::client::PipelineConfig;
use curp_proto::cluster::{HashRange, LoadStats, LOAD_HISTOGRAM_BUCKETS};
use curp_proto::message::{LogEntry, RecordedRequest, Request};
use curp_proto::op::{Op, OpResult};
use curp_proto::types::{ClientId, KeyHash, MasterId, RpcId, WitnessListVersion};
use curp_proto::wire::{Decode, Encode};
use curp_sim::{run_sim, to_virtual_ns, Mode, RamcloudParams, SimCluster};
use curp_storage::{Aof, ShardedStore, StateStore, TempDir, TierConfig, TieredStore};
use curp_witness::{CacheConfig, WitnessCache, WitnessService};

fn request(seq: u64, key: u64) -> RecordedRequest {
    let op = Op::Put {
        key: Bytes::from(key.to_le_bytes().to_vec()),
        value: Bytes::from_static(b"0123456789012345678901234567890123456789"),
    };
    RecordedRequest {
        master_id: MasterId(1),
        rpc_id: RpcId::new(ClientId(1), seq),
        key_hashes: op.key_hashes(),
        op,
    }
}

fn bench_witness(c: &mut Criterion) {
    c.bench_function("witness_record_gc_cycle", |b| {
        let mut cache = WitnessCache::new(CacheConfig::default());
        let mut seq = 0u64;
        b.iter(|| {
            seq += 1;
            let req = request(seq, seq);
            let pair = (req.key_hashes[0], req.rpc_id);
            cache.record(req);
            cache.gc(&[pair]);
        });
    });
    c.bench_function("witness_record_reject_conflict", |b| {
        let mut cache = WitnessCache::new(CacheConfig::default());
        cache.record(request(1, 42));
        let mut seq = 1u64;
        b.iter(|| {
            seq += 1;
            cache.record(request(seq, 42)) // same key: rejected
        });
    });
    c.bench_function("witness_commute_probe", |b| {
        let mut cache = WitnessCache::new(CacheConfig::default());
        for i in 0..1000 {
            cache.record(request(i + 1, i));
        }
        let probe = [KeyHash::of(b"some-other-key")];
        b.iter(|| cache.commutes_with_read(&probe));
    });
    c.bench_function("witness_record_reject_alloc_free", |b| {
        // Pins the validate-before-allocate reject path: a conflicting
        // record must be turned away without touching the heap. The
        // recorded request is cloned per iteration, which is allocation-free
        // itself (`Bytes` is refcounted, the footprint is inline).
        let mut cache = WitnessCache::new(CacheConfig::default());
        cache.record(request(1, 7));
        let conflicting = request(2, 7);
        b.iter(|| cache.record(conflicting.clone()));
    });
}

/// The single-space store: one shard. The store rows hold its `lock_all`
/// guard across the timed loop, so they price `KeySpace` execution plus
/// guard-level routing, never a per-op lock.
fn single_space() -> ShardedStore {
    ShardedStore::new(1)
}

fn bench_store(c: &mut Criterion) {
    c.bench_function("store_put_100b", |b| {
        let store = single_space();
        let mut guards = store.lock_all();
        let value = Bytes::from(vec![0u8; 100]);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            guards.execute(&Op::Put {
                key: Bytes::from((i % 100_000).to_le_bytes().to_vec()),
                value: value.clone(),
            })
        });
    });
    // Typed-collection mutations on a 1 000-element object: the in-place
    // execute path must stay O(1) amortized regardless of collection size.
    // The `_clone_baseline` twin prices the clone-per-mutation alternative
    // (what `execute` used to do); the acceptance bar is a >= 10x gap.
    let fields: Vec<Bytes> = (0..1000u32).map(|i| Bytes::from(format!("field-{i}"))).collect();
    let value = Bytes::from(vec![0u8; 32]);
    c.bench_function("store_hset_1k_fields", |b| {
        let store = single_space();
        let mut guards = store.lock_all();
        let key = Bytes::from_static(b"hash-object");
        for f in &fields {
            guards.execute(&Op::HSet { key: key.clone(), field: f.clone(), value: value.clone() });
        }
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            guards.execute(&Op::HSet {
                key: key.clone(),
                field: fields[i % fields.len()].clone(),
                value: value.clone(),
            })
        });
    });
    c.bench_function("store_hset_1k_fields_clone_baseline", |b| {
        let mut baseline: HashMap<Bytes, Bytes> =
            fields.iter().map(|f| (f.clone(), value.clone())).collect();
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            // Clone-modify-replace, as the pre-refactor execute did.
            let mut h = baseline.clone();
            h.insert(fields[i % fields.len()].clone(), value.clone());
            baseline = h;
            baseline.len()
        });
    });
    c.bench_function("store_list_push_1k", |b| {
        // The list is reset to 1 000 elements (export, then import into a
        // fresh store) every 1 000 pushes so the measured size stays
        // bounded (1k–2k) no matter how many iterations the harness runs;
        // the amortized reset cost is timed with the pushes.
        let key = Bytes::from_static(b"list-object");
        let base = single_space();
        for _ in 0..1000 {
            base.execute(&Op::ListPush { key: key.clone(), value: value.clone() });
        }
        let (objects, dead) = base.export();
        let reset = || ShardedStore::import(1, objects.clone(), dead.clone());
        let mut store: ShardedStore = reset();
        let mut pushes = 0u64;
        b.iter_custom(|iters| {
            let start = Instant::now();
            let mut left = iters;
            while left > 0 {
                if pushes == 1000 {
                    store = reset();
                    pushes = 0;
                }
                let mut guards = store.lock_all();
                let n = left.min(1000 - pushes);
                for _ in 0..n {
                    std::hint::black_box(
                        guards.execute(&Op::ListPush { key: key.clone(), value: value.clone() }),
                    );
                }
                pushes += n;
                left -= n;
            }
            start.elapsed()
        });
    });
    c.bench_function("store_set_add_1k_members", |b| {
        let store = single_space();
        let mut guards = store.lock_all();
        let key = Bytes::from_static(b"set-object");
        for f in &fields {
            guards.execute(&Op::SetAdd { key: key.clone(), member: f.clone() });
        }
        // Re-adding an existing member keeps the set at 1 000 members, so
        // every iteration measures the same-size O(1) path.
        let member = fields[500].clone();
        b.iter(|| guards.execute(&Op::SetAdd { key: key.clone(), member: member.clone() }));
    });
    c.bench_function("store_unsynced_check", |b| {
        let store = single_space();
        let mut guards = store.lock_all();
        for i in 0..100_000u64 {
            guards.execute(&Op::Put {
                key: Bytes::from(i.to_le_bytes().to_vec()),
                value: Bytes::from_static(b"v"),
            });
        }
        guards.mark_synced(store.log_head());
        let op = Op::Put { key: Bytes::from(7u64.to_le_bytes().to_vec()), value: Bytes::new() };
        b.iter(|| guards.touches_unsynced(&op));
    });
}

// ---- lock-granularity contention benches -----------------------------------
//
// The sharding claim — commuting (key-disjoint) operations proceed without
// contending on one global lock — is a *parallelism* property. This CI
// container pins the whole process to a single core, where OS threads can
// never overlap and a wall-clock A/B shows ~1x regardless of locking (see
// EXPERIMENTS.md, "Lock-granularity benches"). The headline benches
// therefore measure **critical-path throughput**, the standard
// machine-independent way to quantify available parallelism:
//
//  * every operation is executed for real on the real `ShardedStore`
//    (real shard locks, real hash maps) and its cost measured in batches;
//  * a deterministic scheduler replays the 4-worker round-robin arrival
//    order, advancing each worker's clock and each shard's clock — an op
//    starts at max(worker free, shard free), i.e. ops serialize exactly
//    when they need the same shard lock;
//  * the reported ns/iter is makespan / ops: with one shard every op
//    serializes behind one clock (the old global-lock geometry); with 8
//    shards the 4 disjoint-key workers overlap almost perfectly.
//
// `store_single_lock_put_4threads` is the *same engine* configured with a
// single shard, so the comparison holds the lock implementation, data
// structure and workload constant and varies only the lock granularity.
// The `_wallclock` twin runs 4 real OS threads for thread-safety proof and
// honest hardware numbers (≈1x here; the full parallel gap on multicore).

/// One batch of puts timed per `TIME_BATCH` ops (amortizes the timer cost),
/// replayed through the worker/shard critical-path scheduler.
fn critical_path_put_ns(num_shards: usize, workers: usize, iters: u64) -> Duration {
    const TIME_BATCH: u64 = 64;
    let store: ShardedStore = ShardedStore::new(num_shards);
    let value = Bytes::from_static(b"0123456789012345678901234567890123456789");
    let mut worker_clock = vec![0u64; workers];
    let mut shard_clock = vec![0u64; num_shards];
    let mut shards_of = Vec::with_capacity(TIME_BATCH as usize);
    let mut done = 0u64;
    while done < iters {
        let batch = TIME_BATCH.min(iters - done);
        shards_of.clear();
        let t0 = Instant::now();
        for i in done..done + batch {
            // Round-robin arrival order; each worker writes its own
            // disjoint, bounded key stream (keys recycle like
            // `store_put_100b`'s so the map size stays fixed).
            let w = i % workers as u64;
            let k = ((i / workers as u64) % 25_000) * workers as u64 + w;
            let key = Bytes::from(k.to_le_bytes().to_vec());
            shards_of.push((w as usize, store.shard_of(&key)));
            store.execute(&Op::Put { key, value: value.clone() });
        }
        let per_op = t0.elapsed().as_nanos() as u64 / batch;
        // Replay the batch through the critical-path scheduler: an op
        // starts when both its worker and its shard lock are free.
        for &(w, s) in &shards_of {
            let end = worker_clock[w].max(shard_clock[s]) + per_op;
            worker_clock[w] = end;
            shard_clock[s] = end;
        }
        done += batch;
    }
    Duration::from_nanos(worker_clock.into_iter().max().unwrap_or(0))
}

/// Real OS threads hammering one shared store; returns wall time.
fn wallclock_put_ns(num_shards: usize, workers: u64, iters: u64) -> Duration {
    let store: ShardedStore = ShardedStore::new(num_shards);
    let value = Bytes::from_static(b"0123456789012345678901234567890123456789");
    let per_worker = iters / workers + 1;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (store, value) = (&store, &value);
            scope.spawn(move || {
                for i in 0..per_worker {
                    let k = (i % 25_000) * workers + w;
                    store.execute(&Op::Put {
                        key: Bytes::from(k.to_le_bytes().to_vec()),
                        value: value.clone(),
                    });
                }
            });
        }
    });
    start.elapsed()
}

fn bench_contention(c: &mut Criterion) {
    c.bench_function("store_sharded_put_4threads", |b| {
        b.iter_custom(|iters| critical_path_put_ns(8, 4, iters))
    });
    c.bench_function("store_single_lock_put_4threads", |b| {
        // Baseline: the same engine, one shard — the pre-sharding
        // global-lock geometry. Every op serializes on the single lock.
        b.iter_custom(|iters| critical_path_put_ns(1, 4, iters))
    });
    c.bench_function("store_sharded_put_4threads_wallclock", |b| {
        // Hardware-dependent: ≈1x vs a single shard on a 1-core container,
        // the real parallel speedup on multicore. Kept for thread-safety
        // proof and for runs on wider machines.
        b.iter_custom(|iters| wallclock_put_ns(8, 4, iters))
    });
    c.bench_function("witness_record_2masters_concurrent", |b| {
        // Two masters' record streams through one WitnessService from two
        // real threads: per-master instance locks mean neither stream
        // waits on the other's cache. Each record is gc'd immediately so
        // occupancy stays bounded at any iteration count.
        b.iter_custom(|iters| {
            let service = WitnessService::new(CacheConfig::default());
            assert!(service.start(MasterId(1)));
            assert!(service.start(MasterId(2)));
            let per_master = iters / 2 + 1;
            let start = Instant::now();
            std::thread::scope(|scope| {
                for m in 1..=2u64 {
                    let service = &service;
                    scope.spawn(move || {
                        for i in 0..per_master {
                            let op = Op::Put {
                                key: Bytes::from(i.to_le_bytes().to_vec()),
                                value: Bytes::from_static(b"v"),
                            };
                            let req = RecordedRequest {
                                master_id: MasterId(m),
                                rpc_id: RpcId::new(ClientId(m), i + 1),
                                key_hashes: op.key_hashes(),
                                op,
                            };
                            let pair = (req.key_hashes[0], req.rpc_id);
                            service.record(req);
                            service.gc(MasterId(m), &[pair]);
                        }
                    });
                }
            });
            start.elapsed()
        })
    });
}

// ---- durable path: the backup's per-sync-round AOF write --------------------
//
// `aof_append_batch_fsync` prices exactly what a durable backup pays per
// sync round before it may acknowledge (DESIGN.md invariant 7): one
// `append_batch` of 50 entries + one fsync (§C.2's batching — compare
// ~50x this per-entry cost for `appendfsync always`). The `_nofsync` twin
// isolates the encode+write cost so the fsync share is visible in the
// trajectory. Real wall-clock disk numbers; the bench caps the physical
// rounds per sample and extrapolates, so the file stays small (~8 KiB per
// round) at any requested iteration count.

fn aof_round_time(iters: u64, fsync: bool) -> Duration {
    const CAP: u64 = 64;
    let rounds = iters.clamp(1, CAP);
    let dir = TempDir::new("curp-bench-aof").expect("bench aof dir");
    let path = dir.path().join("round.aof");
    let batch: Vec<LogEntry> = (0..50u64)
        .map(|i| LogEntry {
            seq: i,
            rpc_id: Some(RpcId::new(ClientId(1), i + 1)),
            op: Op::Put {
                key: Bytes::from(i.to_le_bytes().to_vec()),
                value: Bytes::from(vec![b'x'; 100]),
            },
            result: OpResult::Written { version: i + 1 },
        })
        .collect();
    let (mut aof, _) = Aof::open(&path).expect("open bench aof");
    let t0 = Instant::now();
    for _ in 0..rounds {
        aof.append_batch(&batch).expect("append");
        if fsync {
            aof.sync().expect("fsync");
        }
    }
    let elapsed = t0.elapsed();
    drop(aof);
    if rounds == iters {
        elapsed
    } else {
        Duration::from_nanos(
            (elapsed.as_nanos() as f64 * iters as f64 / rounds as f64).round() as u64
        )
    }
}

fn bench_aof(c: &mut Criterion) {
    c.bench_function("aof_append_batch_fsync", |b| {
        b.iter_custom(|iters| aof_round_time(iters, true))
    });
    c.bench_function("aof_append_batch_nofsync", |b| {
        b.iter_custom(|iters| aof_round_time(iters, false))
    });
}

// ---- tiered engine: memtable-miss writes, run merges, log rewrites ----------
//
// `tiered_put_miss_memtable` prices the steady-state write path of the
// larger-than-memory engine: every put lands on a key whose state was
// evicted to a sorted run, so the lock-time promotion (run lookup +
// reinsert) runs on each op, and the periodic sync+maintain that re-evicts
// the written keys is amortized into the loop — the honest per-op cost of
// a working set that does not fit the memtable (tier fsync off; the disk
// share is priced by the fsync-bound benches below). `run_merge` and
// `aof_rewrite_compact` price the two background compaction steps a
// durable backup pays to keep its disk footprint bounded; both are
// fsync/IO-bound and gate-exempt ([`curp_bench::gate`]) like
// `aof_append_batch_fsync`.

fn tiered_put_miss_time(iters: u64) -> Duration {
    const KEYS: u64 = 1024;
    let dir = TempDir::new("curp-bench-tier").expect("bench tier root");
    let mut cfg = TierConfig::new(dir.path());
    cfg.memtable_budget = 1; // every maintain evicts all synced state
    cfg.fsync = false;
    let store: TieredStore = TieredStore::over(ShardedStore::new(4), cfg).expect("tiered store");
    let value = Bytes::from(vec![b'x'; 100]);
    let put = |i: u64| {
        let op = Op::Put { key: Bytes::from(i.to_le_bytes().to_vec()), value: value.clone() };
        let set = op.key_hashes().shard_set(store.num_shards());
        store.lock_for(&set, Some(&op)).execute(&op);
    };
    // Preload and evict: every key starts cold in a run file.
    for i in 0..KEYS {
        put(i);
    }
    store.lock_all_for(None).mark_synced(store.log_head());
    store.maintain().expect("preload flush");
    let t0 = Instant::now();
    for i in 0..iters {
        put(i % KEYS);
        if i % 256 == 255 {
            // Re-evict the freshly written (now synced) keys so the next
            // lap's writes miss the memtable again.
            store.lock_all_for(None).mark_synced(store.log_head());
            store.maintain().expect("steady-state maintain");
        }
    }
    let elapsed = t0.elapsed();
    drop(store);
    elapsed
}

/// One merge of 4 runs x 256 records into a single run, setup untimed.
/// Physical rounds are capped and extrapolated like [`aof_round_time`].
fn run_merge_time(iters: u64) -> Duration {
    const CAP: u64 = 32;
    let rounds = iters.clamp(1, CAP);
    let dir = TempDir::new("curp-bench-merge").expect("bench merge root");
    let value = Bytes::from(vec![b'x'; 100]);
    let mut total = Duration::ZERO;
    for _ in 0..rounds {
        let mut cfg = TierConfig::new(dir.path());
        cfg.memtable_budget = 1;
        cfg.merge_threshold = 3; // 4 runs trip the merge
        cfg.fsync = true;
        let store: TieredStore =
            TieredStore::over(ShardedStore::new(4), cfg).expect("tiered store");
        for run in 0..4u64 {
            for i in 0..256u64 {
                // Half the keyspace overlaps across runs, half is private.
                let key = run * 128 + i;
                let op =
                    Op::Put { key: Bytes::from(key.to_le_bytes().to_vec()), value: value.clone() };
                let set = op.key_hashes().shard_set(store.num_shards());
                store.lock_for(&set, Some(&op)).execute(&op);
            }
            store.lock_all_for(None).mark_synced(store.log_head());
            if run < 3 {
                store.maintain().expect("build run"); // flush only: below threshold
            }
        }
        let t0 = Instant::now();
        store.maintain().expect("merge"); // 4th flush + all-runs merge
        total += t0.elapsed();
        assert_eq!(store.run_count(), 1, "merge must have collapsed the runs");
    }
    if rounds == iters {
        total
    } else {
        Duration::from_nanos((total.as_nanos() as f64 * iters as f64 / rounds as f64).round() as u64)
    }
}

/// One crash-safe `FramedLog::rewrite` compacting a 2000-entry log to its
/// 100-entry live suffix (tmp + fsync + rename + dir fsync) — the price
/// of bounding a backup's log once checkpoint coverage has advanced.
fn aof_rewrite_time(iters: u64) -> Duration {
    const CAP: u64 = 32;
    let rounds = iters.clamp(1, CAP);
    let dir = TempDir::new("curp-bench-rewrite").expect("bench rewrite root");
    let path = dir.path().join("log.aof");
    let entry = |seq: u64| LogEntry {
        seq,
        rpc_id: Some(RpcId::new(ClientId(1), seq + 1)),
        op: Op::Put {
            key: Bytes::from(seq.to_le_bytes().to_vec()),
            value: Bytes::from(vec![b'x'; 100]),
        },
        result: OpResult::Written { version: seq + 1 },
    };
    let full: Vec<LogEntry> = (0..2000).map(entry).collect();
    let suffix: Vec<LogEntry> = (1900..2000).map(entry).collect();
    let mut total = Duration::ZERO;
    for _ in 0..rounds {
        let _ = std::fs::remove_file(&path);
        let (mut aof, _) = Aof::open(&path).expect("open bench aof");
        aof.append_batch(&full).expect("append");
        aof.sync().expect("fsync");
        drop(aof);
        let t0 = Instant::now();
        drop(Aof::rewrite(&path, &suffix).expect("rewrite"));
        total += t0.elapsed();
    }
    if rounds == iters {
        total
    } else {
        Duration::from_nanos((total.as_nanos() as f64 * iters as f64 / rounds as f64).round() as u64)
    }
}

fn bench_tiered(c: &mut Criterion) {
    c.bench_function("tiered_put_miss_memtable", |b| b.iter_custom(tiered_put_miss_time));
    c.bench_function("run_merge", |b| b.iter_custom(run_merge_time));
    c.bench_function("aof_rewrite_compact", |b| b.iter_custom(aof_rewrite_time));
}

fn bench_codec(c: &mut Criterion) {
    let req = Request::ClientUpdate {
        rpc_id: RpcId::new(ClientId(7), 1234),
        first_incomplete: 1200,
        witness_list_version: WitnessListVersion(3),
        op: Op::Put {
            key: Bytes::from_static(b"user4821309184"),
            value: Bytes::from(vec![0u8; 100]),
        },
    };
    c.bench_function("codec_encode_update", |b| b.iter(|| req.to_bytes()));
    let bytes = req.to_bytes();
    // The transports decode with `from_bytes_shared`: keys and values
    // window into the frame buffer (the clone is an O(1) refcount bump).
    c.bench_function("codec_decode_update", |b| {
        b.iter(|| Request::from_bytes_shared(bytes.clone()).unwrap())
    });
    c.bench_function("codec_decode_update_copy", |b| {
        b.iter(|| Request::from_bytes(&bytes).unwrap())
    });
    c.bench_function("keyhash_30b", |b| {
        let key = b"012345678901234567890123456789";
        b.iter(|| KeyHash::of(key));
    });
    c.bench_function("load_stats_split_point", |b| {
        // The autoscaler's split-point pick: a hotkey-mass median over the
        // full 64-bucket histogram (worst case: the cumulative scan walks
        // every bucket). Pure arithmetic on the coordinator's poll path.
        let range = HashRange { start: 0, end: u64::MAX };
        let hot_hash_histogram: Vec<u64> =
            (0..LOAD_HISTOGRAM_BUCKETS as u64).map(|i| i * 7 + 1).collect();
        let stats = LoadStats { updates: 1 << 20, pending: 8, range, hot_hash_histogram };
        b.iter(|| stats.split_point());
    });
}

// ---- client throughput: serial vs pipelined/batched -------------------------
//
// The end-to-end client benches measure **virtual time** on the calibrated
// in-memory cluster (Mode::Curp, f = 3, InfiniBand profile): `iter_custom`
// reports the simulated nanoseconds per completed 100 B write, so the
// numbers are deterministic given the seeds and independent of the CI
// runner's load — which is what lets the bench-regression gate hold them to
// a tight threshold. `client_serial_update` is the one-op-in-flight
// baseline (§5.1's closed-loop single client, ~7.3 µs/op);
// `client_pipelined_w16` keeps a 16-op window per partition and flushes
// Batch frames, which overlaps round trips and amortizes the master's
// per-message dispatch cost. The acceptance bar for the pipelined path is
// >= 2x the serial ops/sec; in practice the gap is far larger. The
// `_4partitions` variant routes the same stream across four masters from
// one client handle.
//
// Runs are capped at 2 000 simulated ops per measured batch (deterministic,
// steady-state) and the reported duration extrapolates linearly, so full
// bench mode stays seconds-long.

fn sim_ops_capped(iters: u64, run: impl FnOnce(u64) -> Duration) -> Duration {
    const CAP: u64 = 2_000;
    let ops = iters.clamp(1, CAP);
    let elapsed = run(ops);
    if ops == iters {
        elapsed
    } else {
        Duration::from_nanos((elapsed.as_nanos() as f64 * iters as f64 / ops as f64).round() as u64)
    }
}

fn serial_vtime(iters: u64) -> Duration {
    sim_ops_capped(iters, |ops| {
        run_sim(async move {
            let cluster = SimCluster::build(Mode::Curp, RamcloudParams::new(3)).await;
            let elapsed = cluster.time_serial_updates(ops, 100_000).await;
            Duration::from_nanos(to_virtual_ns(elapsed))
        })
    })
}

fn pipelined_vtime(iters: u64, partitions: usize) -> Duration {
    sim_ops_capped(iters, |ops| {
        run_sim(async move {
            let cluster =
                SimCluster::build_partitioned(Mode::Curp, RamcloudParams::new(3), partitions).await;
            let elapsed =
                cluster.time_pipelined_updates(ops, 100_000, PipelineConfig::default()).await;
            Duration::from_nanos(to_virtual_ns(elapsed))
        })
    })
}

/// Virtual time of one full online split (§3.6): drain the source master,
/// cut the range at the midpoint, install the upper half on the spare, and
/// publish the new map. The cluster holds 128 objects so the snapshot and
/// backup installs carry real payload. Deterministic (virtual time); the
/// gate holds it like the client benches.
fn split_migration_vtime(iters: u64) -> Duration {
    const CAP: u64 = 8;
    let rounds = iters.clamp(1, CAP);
    let mut total = Duration::ZERO;
    for _ in 0..rounds {
        total += run_sim(async {
            let cluster = SimCluster::build(Mode::Curp, RamcloudParams::new(3)).await;
            let client = cluster.client(0).await;
            for i in 0..128u64 {
                client
                    .update(Op::Put {
                        key: Bytes::from(i.to_le_bytes().to_vec()),
                        value: Bytes::from(vec![0u8; 100]),
                    })
                    .await
                    .expect("seed put");
            }
            let part = cluster.coord.config().partitions[0].clone();
            let spare = cluster.coord.spare_servers()[0];
            let t0 = tokio::time::Instant::now();
            cluster
                .coord
                .migrate(
                    part.master_id,
                    u64::MAX / 2,
                    spare,
                    part.backups.clone(),
                    part.witnesses.clone(),
                )
                .await
                .expect("split migration");
            Duration::from_nanos(to_virtual_ns(t0.elapsed()))
        });
    }
    if rounds == iters {
        total
    } else {
        Duration::from_nanos((total.as_nanos() as f64 * iters as f64 / rounds as f64).round() as u64)
    }
}

fn bench_client_throughput(c: &mut Criterion) {
    c.bench_function("client_serial_update", |b| b.iter_custom(serial_vtime));
    c.bench_function("client_pipelined_w16", |b| b.iter_custom(|i| pipelined_vtime(i, 1)));
    c.bench_function("client_pipelined_w16_4partitions", |b| {
        b.iter_custom(|i| pipelined_vtime(i, 4))
    });
    c.bench_function("scaleout_split_migration", |b| b.iter_custom(split_migration_vtime));
}

fn bench_commutativity(c: &mut Criterion) {
    c.bench_function("op_commutes_with", |b| {
        let a = Op::Put { key: Bytes::from_static(b"alpha"), value: Bytes::from_static(b"1") };
        let bop = Op::Put { key: Bytes::from_static(b"beta"), value: Bytes::from_static(b"2") };
        b.iter(|| a.commutes_with(&bop));
    });
    c.bench_function("multiput_3key_footprint", |b| {
        b.iter_batched(
            || Op::MultiPut {
                kvs: vec![
                    (Bytes::from_static(b"a"), Bytes::from_static(b"1")),
                    (Bytes::from_static(b"b"), Bytes::from_static(b"2")),
                    (Bytes::from_static(b"c"), Bytes::from_static(b"3")),
                ],
            },
            |op| op.key_hashes(),
            BatchSize::SmallInput,
        );
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(50).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_witness, bench_store, bench_contention, bench_aof, bench_tiered, bench_codec, bench_commutativity
}
criterion_group! {
    name = client_benches;
    // Virtual-time cluster runs are deterministic, so a short budget loses
    // no precision; the cap in `sim_ops_capped` bounds wall time per sample.
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_millis(200)).warm_up_time(std::time::Duration::from_millis(50));
    targets = bench_client_throughput
}
criterion_main!(benches, client_benches);
