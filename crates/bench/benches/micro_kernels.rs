//! Criterion micro-benchmarks of the computational kernels underneath
//! every figure: local SpGEMM (overlap detection's inner loop), x-drop
//! extension (the Alignment phase), k-mer scanning (CountKmer), the
//! DCSC→CSC expansion (§4.4), the connected-components sweep, the
//! distributed SUMMA schedules (eager vs. pipelined vs. blocked — all
//! running zero-copy `Arc`-shared stage broadcasts), the owned-vs-shared
//! broadcast comparison itself, and the k-mer exchange schedules (eager
//! vs. streaming `ialltoallv`).

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use elba_align::{xdrop_extend, Scoring};
use elba_comm::ProcGrid;
use elba_comm::{Backend, Runner};
use elba_core::UnionFind;
use elba_seq::kmer::canonical_kmers;
use elba_seq::Seq;
use elba_sparse::semiring::PlusTimes;
use elba_sparse::spgemm::spgemm;
use elba_sparse::{Csr, Dcsc, DistMat, SpGemmOptions};

fn random_csr(rng: &mut StdRng, n: usize, nnz_per_row: usize) -> Csr<f64> {
    let mut triples = Vec::with_capacity(n * nnz_per_row);
    for r in 0..n {
        for _ in 0..nnz_per_row {
            triples.push((r as u32, rng.gen_range(0..n as u32), 1.0));
        }
    }
    Csr::from_triples(n, n, triples, |acc, v| *acc += v)
}

fn random_seq(rng: &mut StdRng, len: usize) -> Seq {
    Seq::from_codes((0..len).map(|_| rng.gen_range(0..4u8)).collect())
}

fn bench_spgemm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let a = random_csr(&mut rng, 2_000, 8);
    let b = random_csr(&mut rng, 2_000, 8);
    c.bench_function("spgemm_2000x2000_d8", |bencher| {
        bencher.iter(|| spgemm(black_box(&a), black_box(&b), &PlusTimes))
    });
}

fn bench_xdrop(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let genome = random_seq(&mut rng, 30_000);
    // two overlapping reads with 1% substitutions
    let mut a = genome.codes()[0..12_000].to_vec();
    let b = genome.codes()[4_000..16_000].to_vec();
    for _ in 0..120 {
        let at = rng.gen_range(0..a.len());
        a[at] = (a[at] + 1) % 4;
    }
    c.bench_function("xdrop_8kb_overlap_1pct_err", |bencher| {
        bencher.iter(|| {
            xdrop_extend(
                black_box(&a[4_000..]),
                black_box(&b),
                30,
                Scoring::default(),
            )
        })
    });
    let noisy_b: Vec<u8> = b
        .iter()
        .map(|&x| {
            if rng.gen_bool(0.15) {
                rng.gen_range(0..4u8)
            } else {
                x
            }
        })
        .collect();
    c.bench_function("xdrop_early_stop_15pct_err", |bencher| {
        bencher.iter(|| {
            xdrop_extend(
                black_box(&a[4_000..]),
                black_box(&noisy_b),
                7,
                Scoring::default(),
            )
        })
    });
}

fn bench_kmer_scan(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let read = random_seq(&mut rng, 20_000);
    c.bench_function("kmer_scan_20kb_k31", |bencher| {
        bencher.iter(|| canonical_kmers(black_box(&read), 31).len())
    });
    c.bench_function("kmer_scan_20kb_k17", |bencher| {
        bencher.iter(|| canonical_kmers(black_box(&read), 17).len())
    });
}

fn bench_dcsc_to_csc(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    // hypersparse: 100k columns, 5k entries (an induced-subgraph block)
    let triples: Vec<(u32, u32, u64)> = (0..5_000)
        .map(|_| {
            (
                rng.gen_range(0..100_000u32),
                rng.gen_range(0..100_000u32),
                1u64,
            )
        })
        .collect();
    c.bench_function("dcsc_to_csc_hypersparse", |bencher| {
        bencher.iter_batched(
            || Dcsc::from_triples(100_000, 100_000, triples.clone(), |_, _| {}),
            |dcsc| dcsc.to_csc(),
            criterion::BatchSize::SmallInput,
        )
    });
}

fn bench_union_find(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let n = 50_000;
    let edges: Vec<(usize, usize)> = (0..n)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    c.bench_function("union_find_50k", |bencher| {
        bencher.iter(|| {
            let mut uf = UnionFind::new(n);
            for &(u, v) in &edges {
                uf.union(u, v);
            }
            uf.labels().len()
        })
    });
}

/// The distributed `C = AAᵀ` multiply on a 2×2 in-process grid: the
/// pipelined default against the eager reference oracle. The pipelined
/// schedule should shave the broadcast serialization and the final
/// sort-merge. (The budgeted schedule is timed below, next to the
/// memory it buys.)
fn bench_summa_schedules(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(6);
    let (n_reads, n_kmers, per_row) = (600usize, 4_000usize, 12usize);
    let mut triples = Vec::with_capacity(n_reads * per_row);
    for r in 0..n_reads {
        for _ in 0..per_row {
            triples.push((r as u64, rng.gen_range(0..n_kmers as u64), 1.0f64));
        }
    }
    let triples = Arc::new(triples);
    for (label, opts) in [
        ("eager", SpGemmOptions::eager()),
        ("pipelined", SpGemmOptions::pipelined()),
    ] {
        let triples = Arc::clone(&triples);
        c.bench_function(&format!("summa_aat_600x4000_p4_{label}"), |bencher| {
            bencher.iter(|| {
                let triples = Arc::clone(&triples);
                Runner::new(Backend::InProcess).ranks(4).run(move |comm| {
                    let grid = ProcGrid::new(comm);
                    let mine = if grid.world().rank() == 0 {
                        triples.as_ref().clone()
                    } else {
                        Vec::new()
                    };
                    let a =
                        DistMat::from_triples(&grid, n_reads, n_kmers, mine, |acc, _| *acc += 1.0);
                    let at = a.transpose(&grid);
                    let c = a.spgemm_with(&grid, &at, &PlusTimes, &opts);
                    black_box(c.local().nnz())
                })
            })
        });
    }
}

/// The unbudgeted default vs the column-batched SUMMA on the
/// overlap-detection shape (`C = AAᵀ` with a fused prune) at two
/// memory budgets. Before timing, each configuration runs once profiled
/// and reports its tracked per-rank memory high-water — the time column
/// shows what the multi-round re-broadcasts cost, the mem-hw line what
/// they buy.
fn bench_summa_column_batched(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let (n_reads, n_kmers, per_row) = (400usize, 2_000usize, 16usize);
    let mut triples = Vec::with_capacity(n_reads * per_row);
    for r in 0..n_reads {
        for _ in 0..per_row {
            triples.push((r as u64, rng.gen_range(0..n_kmers as u64), 1.0f64));
        }
    }
    let triples = Arc::new(triples);
    let run = |triples: Arc<Vec<(u64, u64, f64)>>, budget: Option<u64>| {
        Runner::new(Backend::InProcess)
            .ranks(4)
            .run_profiled(move |comm| {
                let grid = ProcGrid::new(comm);
                let mine = if grid.world().rank() == 0 {
                    triples.as_ref().clone()
                } else {
                    Vec::new()
                };
                let a = DistMat::from_triples(&grid, n_reads, n_kmers, mine, |acc, _| *acc += 1.0);
                let at = a.transpose(&grid);
                let opts = budget.map_or_else(SpGemmOptions::pipelined, |bytes| {
                    SpGemmOptions::column_batched(64, bytes)
                });
                let c = {
                    let _g = grid.world().phase("spgemm");
                    a.spgemm_pruned_with(&grid, &at, &PlusTimes, &opts, |r, col, v| {
                        r < col && *v >= 2.0
                    })
                };
                black_box(c.local().nnz())
            })
    };
    for (label, budget) in [
        ("unbudgeted", None),
        ("budget_512k", Some(512u64 << 10)),
        ("budget_128k", Some(128u64 << 10)),
    ] {
        let (_, profile) = run(Arc::clone(&triples), budget);
        eprintln!(
            "summa_colbatch_aat_400x2000_p4_{label}: tracked mem high-water {} B/rank",
            profile.max_mem_hw("spgemm")
        );
        let triples = Arc::clone(&triples);
        c.bench_function(
            &format!("summa_colbatch_aat_400x2000_p4_{label}"),
            |bencher| bencher.iter(|| run(Arc::clone(&triples), budget)),
        );
    }
}

/// The broadcast fan-out itself, owned vs `Arc`-shared, on 2×2 and 3×3
/// grids with a SUMMA-stage-sized CSR panel: the owned path deep-copies
/// the panel once per non-root rank at the root's arrival-driven post,
/// the shared path bumps a refcount per rank. Modeled wire bytes are
/// identical — this measures what the zero-copy transport saves, which
/// is exactly what the pipelined/column-batched SUMMA stage path now
/// never pays.
fn bench_bcast_shared_vs_owned(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(8);
    let panel = Arc::new(random_csr(&mut rng, 1_500, 8));
    for p in [4usize, 9] {
        let shared = Arc::clone(&panel);
        c.bench_function(&format!("ibcast_owned_csr1500_p{p}"), |bencher| {
            let panel = Arc::clone(&shared);
            bencher.iter(move || {
                let panel = Arc::clone(&panel);
                Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
                    let v = comm
                        .ibcast(0, (comm.rank() == 0).then(|| (*panel).clone()))
                        .wait();
                    black_box(v.nnz())
                })
            })
        });
        let shared = Arc::clone(&panel);
        c.bench_function(&format!("ibcast_shared_csr1500_p{p}"), |bencher| {
            let panel = Arc::clone(&shared);
            bencher.iter(move || {
                let panel = Arc::clone(&panel);
                Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
                    let v = comm
                        .ibcast_shared(0, (comm.rank() == 0).then(|| Arc::clone(&panel)))
                        .wait();
                    black_box(v.nnz())
                })
            })
        });
    }
}

/// The CountKmer + GenerateA exchanges on a 2×2 grid under each schedule:
/// the eager flat `alltoallv` against the streaming chunked `ialltoallv`
/// at a small and a large batch. Streaming aggregates counts per batch
/// window (the eager path pre-aggregates the whole local store) in
/// exchange for buffering bounded by `batch_kmers` instead of the
/// dataset; smaller batches mean more chunks and less aggregation.
fn bench_kmer_exchange(c: &mut Criterion) {
    use elba_core::{KmerExchangeConfig, PipelineConfig};
    use elba_seq::sim::DatasetSpec;
    use elba_seq::{build_a_triples, count_kmers, KmerExchange};

    let spec = DatasetSpec::celegans_like(0.04, 11);
    let (_, sim_reads) = spec.generate();
    let reads: Arc<Vec<elba_seq::Seq>> = Arc::new(sim_reads.into_iter().map(|r| r.seq).collect());
    let base = PipelineConfig::for_dataset(&spec);
    for (label, exchange, batch) in [
        ("eager", KmerExchange::Eager, 0usize),
        ("streaming_4k", KmerExchange::Streaming, 4 << 10),
        ("streaming_64k", KmerExchange::Streaming, 64 << 10),
    ] {
        let reads = Arc::clone(&reads);
        let cfg = if batch == 0 {
            base.clone().kmer_exchange(KmerExchangeConfig {
                exchange,
                batch_kmers: base.kmer.batch_kmers,
            })
        } else {
            base.clone().kmer_exchange(KmerExchangeConfig {
                exchange,
                batch_kmers: batch,
            })
        };
        c.bench_function(&format!("kmer_exchange_p4_{label}"), |bencher| {
            bencher.iter(|| {
                let reads = Arc::clone(&reads);
                let kcfg = cfg.kmer.clone();
                Runner::new(Backend::InProcess).ranks(4).run(move |comm| {
                    let grid = ProcGrid::new(comm);
                    let store = elba_seq::ReadStore::from_replicated(&grid, &reads);
                    let table = count_kmers(&grid, &store, &kcfg);
                    let triples = build_a_triples(&grid, &store, &table, &kcfg);
                    black_box(table.n_global as usize + triples.len())
                })
            })
        });
    }
}

criterion_group!(
    name = kernels;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_spgemm, bench_xdrop, bench_kmer_scan, bench_dcsc_to_csc, bench_union_find, bench_summa_schedules, bench_summa_column_batched, bench_bcast_shared_vs_owned, bench_kmer_exchange
);
criterion_main!(kernels);
