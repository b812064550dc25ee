//! Integration tests spanning all crates: the full Algorithm 1 + 2
//! pipeline on simulated datasets, checked for quality, determinism and
//! distribution invariance.

use elba::prelude::*;

fn reads_of(spec: &DatasetSpec) -> (Seq, Vec<Seq>) {
    let (genome, sim_reads) = spec.generate();
    (genome, sim_reads.into_iter().map(|r| r.seq).collect())
}

fn canonical(contigs: &[Contig]) -> Vec<String> {
    let mut out: Vec<String> = contigs
        .iter()
        .map(|c| {
            let f = c.seq.to_string();
            let r = c.seq.reverse_complement().to_string();
            if f <= r {
                f
            } else {
                r
            }
        })
        .collect();
    out.sort();
    out
}

fn run_at(nranks: usize, reads: &[Seq], cfg: &PipelineConfig) -> Vec<Contig> {
    let reads = reads.to_vec();
    let cfg = cfg.clone();
    Runner::new(Backend::InProcess)
        .ranks(nranks)
        .run(move |comm| {
            let grid = ProcGrid::new(comm);
            let (contigs, _) = assemble_gathered(&grid, &reads, &cfg);
            contigs
        })
        .remove(0)
}

#[test]
fn low_error_dataset_assembles_with_good_quality() {
    let spec = DatasetSpec::celegans_like(0.15, 314); // 15 kb genome
    let (genome, reads) = reads_of(&spec);
    let cfg = PipelineConfig::for_dataset(&spec);
    let contigs = run_at(4, &reads, &cfg);
    assert!(!contigs.is_empty());
    let seqs: Vec<Seq> = contigs.iter().map(|c| c.seq.clone()).collect();
    let report = evaluate(&genome, &seqs, &QualityConfig::default());
    assert!(
        report.completeness > 60.0,
        "completeness {}",
        report.completeness
    );
    assert!(
        report.longest_contig > genome.len() / 10,
        "longest {} of {}",
        report.longest_contig,
        genome.len()
    );
}

#[test]
fn contig_set_is_invariant_across_rank_counts() {
    let spec = DatasetSpec::celegans_like(0.08, 999);
    let (_genome, reads) = reads_of(&spec);
    let cfg = PipelineConfig::for_dataset(&spec);
    let c1 = canonical(&run_at(1, &reads, &cfg));
    let c4 = canonical(&run_at(4, &reads, &cfg));
    let c9 = canonical(&run_at(9, &reads, &cfg));
    assert_eq!(c1, c4, "P=1 vs P=4");
    assert_eq!(c4, c9, "P=4 vs P=9");
}

/// The k-mer sample drops candidates, not overlaps, on low-error reads:
/// the `hifi_p1t1` benchmark's read set (celegans 0.12) assembles the
/// same contigs at `for_dataset`'s derived sample rate as with every
/// k-mer kept, at two seeds.
#[test]
fn sampled_kmers_leave_low_error_contigs_unchanged() {
    for seed in [11, 23] {
        let spec = DatasetSpec::celegans_like(0.12, seed);
        let (_genome, reads) = reads_of(&spec);
        let sampled = PipelineConfig::for_dataset(&spec);
        assert_eq!(sampled.kmer.sample_rate, 6, "seed {seed}: derived rate");
        let mut every = sampled.clone();
        every.kmer.sample_rate = 1;
        let contigs = run_at(1, &reads, &sampled);
        assert!(!contigs.is_empty(), "seed {seed}: contigs");
        assert_eq!(
            canonical(&contigs),
            canonical(&run_at(1, &reads, &every)),
            "seed {seed}: s = 6 vs s = 1"
        );
    }
}

#[test]
fn contig_set_is_invariant_across_thread_counts() {
    // The intra-rank threading acceptance test: assembling with
    // `--threads 4` must produce contigs *byte-identical* to
    // `--threads 1` (exact sequence equality, not just canonical-set
    // equality), with profiled wire bytes per phase unchanged — the
    // pipeline's deterministic fixed-order merges make thread count an
    // implementation detail, and threads never enter the comm layer.
    let spec = DatasetSpec::celegans_like(0.08, 4242);
    let (_genome, reads) = reads_of(&spec);
    let mut runs = Vec::new();
    for threads in [1usize, 4] {
        let cfg = PipelineConfig::for_dataset(&spec).with_threads(threads);
        let reads = reads.clone();
        let (mut outputs, profile) =
            Runner::new(Backend::InProcess)
                .ranks(4)
                .run_profiled(move |comm| {
                    let grid = ProcGrid::new(comm);
                    let (contigs, _) = assemble_gathered(&grid, &reads, &cfg);
                    contigs
                        .into_iter()
                        .map(|c| c.seq.to_string())
                        .collect::<Vec<String>>()
                });
        let phase_bytes: Vec<(String, u64)> = profile
            .phase_names()
            .iter()
            .map(|name| (name.clone(), profile.total_bytes(name)))
            .collect();
        runs.push((outputs.remove(0), phase_bytes));
    }
    assert_eq!(
        runs[0].0, runs[1].0,
        "threads=1 and threads=4 contigs must be byte-identical"
    );
    assert_eq!(
        runs[0].1, runs[1].1,
        "threads must leave the profiled wire bytes untouched"
    );
}

#[test]
fn par_seconds_count_exactly_the_kernels_that_fanned_out() {
    // Ten unrelated genomes: several contigs, so some rank materializes
    // two or more of them and the contig pass has work to fan out.
    let reads: Vec<Seq> = (0..10)
        .flat_map(|seed| reads_of(&DatasetSpec::celegans_like(0.08, 700 + seed)).1)
        .collect();
    let cfg = PipelineConfig::for_dataset(&DatasetSpec::celegans_like(0.08, 700));
    let threaded = [
        "CountKmer",
        "DetectOverlap",
        "Alignment",
        "TrReduction",
        "ExtractContig:LocalAssembly",
    ];
    for threads in [1usize, 4] {
        let cfg = cfg.clone().with_threads(threads);
        let reads = reads.clone();
        let (leftover, profile) =
            Runner::new(Backend::InProcess)
                .ranks(4)
                .run_profiled(move |comm| {
                    let grid = ProcGrid::new(comm);
                    assemble(&grid, &reads, &cfg);
                    elba::par::take_par_secs()
                });
        assert_eq!(
            leftover,
            vec![0.0; 4],
            "threads={threads}: seconds left untaken would book to a later phase"
        );
        for name in profile.phase_names() {
            let par = profile.max_par_secs(&name);
            if threads == 1 {
                assert_eq!(par, 0.0, "one worker books no par-s ({name})");
            } else if threaded.contains(&name.as_str()) {
                assert!(par > 0.0, "{name} fanned out but booked no par-s");
            }
        }
    }
}

#[test]
fn alignment_memory_high_water_repeats_at_four_threads() {
    // Workers claim extensions in whatever order they get to them, so
    // the charge for their scratch must depend only on the stage's set
    // of extensions: repeated runs book the same Alignment high water on
    // every rank.
    let spec = DatasetSpec::celegans_like(0.1, 7);
    let (_genome, reads) = reads_of(&spec);
    let alignment_hw = |threads: usize| -> Vec<u64> {
        let cfg = PipelineConfig::for_dataset(&spec).with_threads(threads);
        let reads = reads.clone();
        let (_, profile) = Runner::new(Backend::InProcess)
            .ranks(4)
            .run_profiled(move |comm| {
                let grid = ProcGrid::new(comm);
                assemble(&grid, &reads, &cfg);
            });
        profile
            .rank_profiles()
            .iter()
            .map(|rank| rank.phase("Alignment").expect("phase entered").mem_hw)
            .collect()
    };
    let first = alignment_hw(4);
    for run in 1..4 {
        assert_eq!(alignment_hw(4), first, "run {run}: Alignment mem-hw moved");
    }
    // A rank below the diagonal aligns nothing; the others charge their
    // three extra workers.
    let serial = alignment_hw(1);
    assert!(
        serial.iter().zip(&first).all(|(one, four)| four >= one)
            && serial.iter().zip(&first).any(|(one, four)| four > one),
        "threads=1 {serial:?} vs threads=4 {first:?}"
    );
}

#[test]
fn each_read_belongs_to_at_most_one_contig() {
    let spec = DatasetSpec::osativa_like(0.1, 77);
    let (_genome, reads) = reads_of(&spec);
    let cfg = PipelineConfig::for_dataset(&spec);
    let contigs = run_at(4, &reads, &cfg);
    let mut seen = std::collections::HashSet::new();
    for contig in &contigs {
        assert!(
            contig.read_ids.len() >= 2,
            "contigs are chains of >= 2 reads"
        );
        for &id in &contig.read_ids {
            assert!(seen.insert(id), "read {id} appears in two contigs");
            assert!((id as usize) < reads.len());
        }
    }
}

#[test]
fn budgeted_pipeline_respects_memory_budget_and_output() {
    // The memory-budget acceptance run: a celegans-like dataset on a 2×2
    // grid with `--mem-budget`-equivalent configuration must (a) report
    // a per-phase memory high-water for every pipeline phase, (b) keep
    // the SpGEMM phase's tracked high-water within the budget, and (c)
    // assemble contigs byte-identical to the unbudgeted run — bounded
    // memory is a schedule change, never a result change.
    let spec = DatasetSpec::celegans_like(0.15, 314);
    let (_genome, reads) = reads_of(&spec);
    let budget_bytes: u64 = 8 << 20; // feasible: inputs alone are ~5 MB/rank
    let plain_cfg = PipelineConfig::for_dataset(&spec);
    let budget_cfg = plain_cfg
        .clone()
        .with_mem_budget(MemBudget::bytes(budget_bytes));
    assert!(
        budget_cfg.overlap.spgemm.mem_budget.is_some(),
        "a budget must reach the SUMMA as its memory budget"
    );

    let run_profiled = |cfg: PipelineConfig| {
        let reads = reads.clone();
        let (mut outs, profile) =
            Runner::new(Backend::InProcess)
                .ranks(4)
                .run_profiled(move |comm| {
                    let grid = ProcGrid::new(comm);
                    let (contigs, _) = assemble_gathered(&grid, &reads, &cfg);
                    contigs
                });
        (canonical(&outs.remove(0)), profile)
    };
    let (plain_contigs, _) = run_profiled(plain_cfg);
    let (budget_contigs, profile) = run_profiled(budget_cfg);

    for phase in ["CountKmer", "DetectOverlap", "Alignment", "TrReduction"] {
        assert!(
            profile.max_mem_hw(phase) > 0,
            "phase {phase} must report a memory high-water"
        );
    }
    let spgemm_hw = profile.max_mem_hw("DetectOverlap");
    assert!(
        spgemm_hw <= budget_bytes,
        "DetectOverlap high-water {spgemm_hw} exceeds the {budget_bytes}-byte budget"
    );
    assert_eq!(
        plain_contigs, budget_contigs,
        "budgeted contigs must be byte-identical to the unbudgeted run"
    );
}

/// The budget implies the schedule, and nothing else can: a limited
/// `MemBudget` hands the SUMMA its SpGEMM sub-budget, an unlimited one
/// leaves the default exactly as a plain run has it — same per-rank
/// messages and bytes, op for op, in the two SpGEMM phases. A budget
/// moves no SpGEMM traffic: against a plain run with the k-mer window
/// the budget derives, each SpGEMM phase sends the same point-to-point
/// bytes, and all the budget adds is one `allreduce` that agrees whether
/// stages are prefetched. It lowers no phase's memory either, but it may
/// not raise DetectOverlap's.
#[test]
fn memory_budget_alone_selects_the_spgemm_schedule() {
    use elba::sparse::SpGemmOptions;
    let spec = DatasetSpec::celegans_like(0.08, 2718);
    let (_genome, reads) = reads_of(&spec);
    let plain = PipelineConfig::for_dataset(&spec);
    assert_eq!(plain.overlap.spgemm, SpGemmOptions::default());
    let unlimited = plain.clone().with_mem_budget(MemBudget::unlimited());
    assert_eq!(unlimited.overlap.spgemm, plain.overlap.spgemm);

    // One row per rank and phase: p2p messages and bytes plus the sorted
    // (collective, calls, bytes) table.
    type Traffic = Vec<(u64, u64, Vec<(&'static str, u64, u64)>)>;
    let run = |cfg: PipelineConfig| {
        let reads = reads.clone();
        let (mut outs, profile) =
            Runner::new(Backend::InProcess)
                .ranks(4)
                .run_profiled(move |comm| {
                    let grid = ProcGrid::new(comm);
                    let (contigs, _) = assemble_gathered(&grid, &reads, &cfg);
                    contigs
                });
        let traffic = |name: &str| -> Traffic {
            profile
                .rank_profiles()
                .iter()
                .map(|rank| {
                    let phase = rank.phase(name).expect("phase recorded");
                    let mut collectives = phase.collectives.clone();
                    collectives.sort();
                    (phase.p2p_msgs, phase.p2p_bytes, collectives)
                })
                .collect()
        };
        (
            canonical(&outs.remove(0)),
            traffic("DetectOverlap"),
            traffic("TrReduction"),
            profile.max_mem_hw("DetectOverlap"),
        )
    };
    let plain_run = run(plain.clone());
    assert!(!plain_run.0.is_empty(), "probe produced no contigs");
    assert_eq!(run(unlimited), plain_run);

    // The budgeted phase posts the plain run's sends and collectives
    // call for call, plus the prefetch verdict: a reduce and a bcast of
    // a 16-byte pair, at most two tree sends each.
    let one_more_allreduce = |phase: &str, budgeted: &Traffic, plain: &Traffic| {
        for (rank, (budgeted, plain)) in budgeted.iter().zip(plain).enumerate() {
            assert_eq!(
                (budgeted.0, budgeted.1),
                (plain.0, plain.1),
                "{phase} rank {rank}: p2p (msgs, bytes)"
            );
            assert_eq!(budgeted.2.len(), plain.2.len(), "{phase} rank {rank}");
            for (&(op, calls, bytes), &(plain_op, plain_calls, plain_bytes)) in
                budgeted.2.iter().zip(&plain.2)
            {
                assert_eq!(op, plain_op, "{phase} rank {rank}");
                if op == "reduce" || op == "bcast" {
                    assert_eq!(calls, plain_calls + 1, "{phase} rank {rank} {op}");
                    assert!(bytes - plain_bytes <= 2 * 16, "{phase} rank {rank} {op}");
                } else {
                    assert_eq!(
                        (calls, bytes),
                        (plain_calls, plain_bytes),
                        "{phase} rank {rank} {op}"
                    );
                }
            }
        }
    };
    for total in [8 << 20, 256 << 10] {
        let budget = MemBudget::bytes(total);
        let limited = plain.clone().with_mem_budget(budget);
        assert_eq!(
            limited.overlap.spgemm.mem_budget,
            budget.spgemm_bytes(),
            "a limited budget must reach the SUMMA"
        );
        // The plain run at the k-mer window the budget derives (its unit
        // is the pipeline's per-occurrence bound, a `(u64, AEntry)` plus
        // a `u64` column query), so that only the SUMMA differs.
        let mut windowed = plain.clone();
        windowed.kmer.batch_kmers = budget.derive_batch_kmers_for(
            std::mem::size_of::<(u64, elba::seq::AEntry)>() + 8,
            3,
            plain.kmer.batch_kmers,
        );
        let windowed = run(windowed);
        let limited = run(limited);
        assert_eq!(limited.0, plain_run.0, "budget {total}: contigs");
        one_more_allreduce("DetectOverlap", &limited.1, &windowed.1);
        one_more_allreduce("TrReduction", &limited.2, &windowed.2);
        assert!(
            limited.3 <= windowed.3,
            "budget {total}: DetectOverlap mem-hw {} above the plain run's {}",
            limited.3,
            windowed.3
        );
    }
}

#[test]
fn contig_length_is_bounded_by_member_reads() {
    let spec = DatasetSpec::celegans_like(0.1, 55);
    let (_genome, reads) = reads_of(&spec);
    let cfg = PipelineConfig::for_dataset(&spec);
    for contig in run_at(4, &reads, &cfg) {
        let member_total: usize = contig
            .read_ids
            .iter()
            .map(|&id| reads[id as usize].len())
            .sum();
        assert!(
            contig.seq.len() <= member_total,
            "contig ({}) longer than its reads combined ({})",
            contig.seq.len(),
            member_total
        );
    }
}

#[test]
fn high_error_dataset_survives_the_pipeline() {
    // 15 % error with the paper's k=17/x=7: mainly checks the noisy code
    // paths (reliable band, early x-drop stops, fuzz classification).
    let spec = DatasetSpec::hsapiens_like(0.08, 4242);
    let (_genome, reads) = reads_of(&spec);
    let cfg = PipelineConfig::for_dataset(&spec);
    let reads_run = reads.clone();
    let cfg_run = cfg.clone();
    let result = Runner::new(Backend::InProcess)
        .ranks(4)
        .run(move |comm| {
            let grid = ProcGrid::new(comm);
            let result = assemble(&grid, &reads_run, &cfg_run);
            (
                result.align_stats.candidate_pairs,
                result.contig_stats.assembly.contigs as u64,
            )
        })
        .remove(0);
    // the pipeline must at least look at candidates and not crash;
    // at this scale and error rate contigs may be few
    assert!(result.0 > 0, "no candidate pairs at 15% error");
}

#[test]
fn pipeline_profile_contains_paper_phases() {
    let spec = DatasetSpec::celegans_like(0.05, 321);
    let (_genome, reads) = reads_of(&spec);
    let cfg = PipelineConfig::for_dataset(&spec);
    let (_, profile) = Runner::new(Backend::InProcess)
        .ranks(4)
        .run_profiled(move |comm| {
            let grid = ProcGrid::new(comm);
            assemble(&grid, &reads, &cfg)
        });
    let names = profile.phase_names();
    for phase in [
        "CountKmer",
        "DetectOverlap",
        "Alignment",
        "TrReduction",
        "ExtractContig",
    ] {
        assert!(
            names.iter().any(|n| n == phase),
            "missing phase {phase}: {names:?}"
        );
        assert!(profile.max_wall(phase) >= 0.0);
    }
    // contig-stage sub-phases exist for the Fig. 5 / §6.1 analyses
    for phase in [
        "ExtractContig:BranchRemoval",
        "ExtractContig:ConnectedComponent",
        "ExtractContig:GreedyPartitioning",
        "ExtractContig:InducedSubgraph",
        "ExtractContig:LocalAssembly",
    ] {
        assert!(
            names.iter().any(|n| n == phase),
            "missing sub-phase {phase}"
        );
    }
}

/// Golden wire pin: per-rank messages (p2p + collective calls) and bytes
/// of the two phases the k-mer stage drives, for one seeded read set at
/// p = 4, against fixed constants. `for_dataset` samples one k-mer in 6
/// on this celegans-like set (`KmerConfig::sample_rate`), so both phases
/// see the sampled occurrences only. CountKmer runs one `alltoallv` of
/// count runs and a one-byte `allreduce` per window. A count record is
/// `varint(gap << 1 | (count > 1))`, plus `varint(count − 2)` above 1,
/// so it costs what the spacing of its owner's k-mers needs: the four
/// ranks book 47 316, 59 183, 50 316 and 36 348 B in 36, 36, 36 and 35
/// messages. With every k-mer kept they booked 403 918, 466 789,
/// 399 072 and 309 496 B in 177, 177, 177 and 176.
///
/// DetectOverlap ships a window's column queries to the other A owners
/// and their answers (8 B per query, 4 B per answer), routes A's triples
/// to their block owners, and runs the symmetric product's direct block
/// sends: no `Aᵀ` is built and nothing is broadcast. Rank (m, s) sends
/// `A(m, s)` as stored to every other rank (m, j) with j ≥ m, and
/// transposed to every rank (i, m) with i < m. A's triples ascend by row
/// and, within a row, by column, so every routed buffer travels as row
/// runs and column gaps, about 5 B a triple where a flat triple took 12.
/// A block frame is its structure — varint shape and `nnz`, `(empty rows
/// skipped, len − 1)` per non-empty row, one column gap per entry, the
/// trailing empty rows — and 4 B per entry. A's 99 read rows split 50 / 49
/// over the grid rows and its 939 sampled k-mer columns 470 / 469 over
/// the grid columns:
///
/// | rank | column queries | routed triples | blocks sent: (rows, entries) structure + values | (msgs, bytes) |
/// |---|---:|---:|---|---:|
/// | 0 (0,0) | 50 878 | 7 053: 35 425 | A(0,0) (50, 7 175) 7 307 + 28 700 | (46, 122 310) |
/// | 1 (0,1) | 58 163 | 8 072: 40 520 | A(0,1) (50, 7 950) 8 086 + 31 800 | (47, 138 569) |
/// | 2 (1,0) | 53 494 | 7 152: 35 916 | A(1,0) (49, 5 990) 6 112 + 23 960, A(1,0)ᵀ (470, 5 990) 6 892 + 23 960 | (48, 150 334) |
/// | 3 (1,1) | 44 295 | 5 418: 27 234 | A(1,1)ᵀ (469, 6 580) 7 496 + 26 320 | (47, 105 345) |
///
/// Rank 2 sits below the diagonal: it multiplies nothing and only sends
/// its block, as stored to (1,1) and transposed to (0,1). A has 27 695
/// entries; with every k-mer kept it had 5 687 columns and 170 073
/// entries, and the ranks booked (234, 900 097), (235, 968 539),
/// (236, 1 047 592) and (235, 754 869).
///
/// The budgeted input is the same run under `MemBudget::bytes(256 <<
/// 10)`. Its derived k-mer window is the 1 024-k-mer floor, so CountKmer,
/// the column queries and the routing do not move; DetectOverlap runs the
/// SUMMA under a 128 KiB SpGEMM budget, which sends the direct block
/// fetch above unchanged. On top comes one `allreduce` of a `(u64, u64)`
/// pair, the prefetch verdict: a `reduce` and a `bcast`, 2 calls on every
/// rank, and 16 B per tree send — 32 B from rank 0, which sends the
/// `bcast` to two children, 32 B from rank 2 (a `reduce` send and a
/// `bcast` send), 16 B from ranks 1 and 3.
///
/// | rank | `DETECT_OVERLAP` | verdict | (msgs, bytes) |
/// |---|---:|---:|---:|
/// | 0 | (46, 122 310) | (2, 32) | (48, 122 342) |
/// | 1 | (47, 138 569) | (2, 16) | (49, 138 585) |
/// | 2 | (48, 150 334) | (2, 32) | (50, 150 366) |
/// | 3 | (47, 105 345) | (2, 16) | (49, 105 361) |
///
/// While the budget cut `C` into column windows, this run shipped each
/// block's pattern in an estimate pass, then the fetch once per window
/// (three), and agreed the round count in four more `allreduce`s: it
/// booked (59, 201 711), (60, 226 467), (64, 284 486) and (60, 179 723).
///
/// Every other wire check compares two live runs (transports, thread
/// counts, budgets), so a reordered record stream that moved both sides
/// would pass them; this one compares against fixed numbers.
#[test]
fn kmer_stage_wire_traffic_matches_golden_constants() {
    // (msgs, bytes) per rank.
    const COUNT_KMER: [(u64, u64); 4] = [(36, 47316), (36, 59183), (36, 50316), (35, 36348)];
    const DETECT_OVERLAP: [(u64, u64); 4] =
        [(46, 122310), (47, 138569), (48, 150334), (47, 105345)];
    const DETECT_OVERLAP_BUDGETED: [(u64, u64); 4] =
        [(48, 122342), (49, 138585), (50, 150366), (49, 105361)];
    let spec = DatasetSpec::celegans_like(0.05, 1919);
    let (_genome, reads) = reads_of(&spec);
    let mut cfg = PipelineConfig::for_dataset(&spec);
    // Small enough that every rank runs dozens of windows: where the
    // window boundaries fall is part of what is pinned.
    cfg.kmer.batch_kmers = 1 << 10;
    let budgeted = cfg.clone().with_mem_budget(MemBudget::bytes(256 << 10));
    // Per rank, one phase's (msgs, bytes) of one run.
    let traffic = |cfg: PipelineConfig| {
        let reads = reads.clone();
        let (_, profile) = Runner::new(Backend::InProcess)
            .ranks(4)
            .run_profiled(move |comm| {
                let grid = ProcGrid::new(comm);
                assemble(&grid, &reads, &cfg)
            });
        move |name: &str| -> Vec<(u64, u64)> {
            profile
                .rank_profiles()
                .iter()
                .map(|rank| {
                    let phase = rank.phase(name).expect("phase recorded");
                    (phase.p2p_msgs + phase.coll_calls(), phase.bytes_sent())
                })
                .collect()
        }
    };
    let plain = traffic(cfg);
    assert_eq!(plain("CountKmer"), COUNT_KMER, "CountKmer (msgs, bytes)");
    assert_eq!(
        plain("DetectOverlap"),
        DETECT_OVERLAP,
        "DetectOverlap (msgs, bytes)"
    );
    let budgeted = traffic(budgeted);
    assert_eq!(
        budgeted("CountKmer"),
        COUNT_KMER,
        "budgeted CountKmer (msgs, bytes)"
    );
    assert_eq!(
        budgeted("DetectOverlap"),
        DETECT_OVERLAP_BUDGETED,
        "budgeted DetectOverlap (msgs, bytes)"
    );
}

/// Golden wire pin for the Alignment phase: each rank's `(msgs, bytes)`
/// at p = 4 on celegans 0.1 seed 7 (8 617 candidate pairs at the derived
/// k-mer sample rate of 6, of which the three passes align 462; with
/// every k-mer kept, 8 634 and 471, and rank 0 ships one mark fewer and
/// rank 1 one more, 5 B each). Before containment first, when every
/// candidate was aligned, the pin read `[(8, 125 471), (12, 197 652),
/// (10, 96 554), (10, 80 546)]`; before pass 3's score bound, when the
/// passes aligned 1 090 pairs, `[(14, 55 403), (22, 82 963), (18, 97 102),
/// (18, 23 412)]`. Per rank, `(msgs, bytes)`, or bytes one pass → three
/// passes where the messages (1, 2 and 1) did not move, and the marks
/// one pass → three passes → with the bound:
///
/// | rank | read fetch | two mask rounds | marks | stats | `R` triples | mask fetch |
/// |---|---|---|---|---|---|---|
/// | 0 | (2, 54 125) | (6, 554) | 1 877 → 167 → 52 | 144 → 160 | 69 200 → 272 | (2, 125) |
/// | 1 | (4, 80 462) | (10, 1 108) | 6 222 → 532 → 57 | 72 → 80 | 110 729 → 614 | (4, 167) |
/// | 2 | (3, 96 112) | (8, 532) | 32 → 32 → 32 | 144 → 160 | 32 → 32 | (3, 234) |
/// | 3 | (3, 22 496) | (8, 415) | 1 872 → 187 → 37 | 72 → 80 | 56 048 → 176 | (3, 58) |
///
/// - The read fetch (`fetch_block_aligned`) and `overlap_graph`'s mask
///   fetch do not move.
/// - A mask round is one `scatter_combine` (an `alltoallv`) and one
///   `fetch_aligned` (a grid-row allgather, plus the transpose swap off
///   the diagonal).
/// - The marks are the last pass's containment verdicts, one
///   `scatter_combine` of 5-byte `(u32, bool)` marks after four 8-byte
///   lengths; before, every candidate's verdicts went here. Pass 3's
///   bound skips most pairs whose only verdict would mark their already
///   contained read: 27, 100 and 31 marks fall to 4, 5 and 1.
/// - The stats allreduce carries a ninth counter, `skipped_pairs`.
/// - `R`'s routed triples (`from_triples`, one `alltoallv`) lose the
///   dovetails of skipped pairs and of pass 3, all of which the mask
///   dropped before.
#[test]
fn alignment_wire_traffic_matches_golden_constants() {
    const ALIGNMENT: [(u64, u64); 4] = [(14, 55288), (22, 82488), (18, 97102), (18, 23262)];
    let spec = DatasetSpec::celegans_like(0.1, 7);
    let (_genome, reads) = reads_of(&spec);
    let cfg = PipelineConfig::for_dataset(&spec);
    let (out, profile) = Runner::new(Backend::InProcess)
        .ranks(4)
        .run_profiled(move |comm| {
            let grid = ProcGrid::new(comm);
            let (contigs, result) = assemble_gathered(&grid, &reads, &cfg);
            (contigs.len(), result.align_stats)
        });
    let (contigs, stats) = out[0];
    assert!(contigs > 0, "the pinned run assembles contigs");
    assert_eq!(
        (stats.candidate_pairs, stats.skipped_pairs),
        (8617, 8155),
        "(candidate, skipped) pairs"
    );
    let traffic: Vec<(u64, u64)> = profile
        .rank_profiles()
        .iter()
        .map(|rank| {
            let phase = rank.phase("Alignment").expect("phase recorded");
            (phase.p2p_msgs + phase.coll_calls(), phase.bytes_sent())
        })
        .collect();
    assert_eq!(traffic, ALIGNMENT, "Alignment (msgs, bytes)");
}

/// A fixed chain graph for the contig-stage wire pin: `chains` error-free
/// genomes, each tiled by `per_chain` 120-base reads at `stride` with
/// seeded strands, ids in chain order, an edge pair between every two
/// reads that overlap (at stride 70 read *i* overlaps *i*+1 alone; below
/// 60 it overlaps *i*+2 as well, a transitive edge), plus one false edge
/// between two chain interiors whose endpoints become branch vertices.
fn fixed_chain_graph(
    chains: usize,
    per_chain: usize,
    stride: usize,
) -> (Vec<Seq>, Vec<(u64, u64, SgEdge)>) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let read_len = 120usize;
    let mut rng = StdRng::seed_from_u64(2323);
    let mut reads = Vec::new();
    let mut triples = Vec::new();
    for chain in 0..chains {
        let glen = stride * (per_chain - 1) + read_len;
        let genome = Seq::from_codes((0..glen).map(|_| rng.gen_range(0..4u8)).collect());
        let strands: Vec<bool> = (0..per_chain).map(|_| rng.gen_bool(0.5)).collect();
        let base = (chain * per_chain) as u64;
        for (i, &rc) in strands.iter().enumerate() {
            let r = genome.substring(i * stride, i * stride + read_len);
            reads.push(if rc { r.reverse_complement() } else { r });
            for d in (1..per_chain - i).take_while(|d| d * stride < read_len) {
                let (shift, overlap) = (d * stride, read_len - d * stride);
                let (u, w) = if rc {
                    ((0, overlap - 1), (shift, read_len - 1))
                } else {
                    ((shift, read_len - 1), (0, overlap - 1))
                };
                let aln = OverlapAln {
                    rc: rc != strands[i + d],
                    u_beg: u.0,
                    u_end: u.1,
                    w_beg: w.0,
                    w_end: w.1,
                    u_len: read_len,
                    v_len: read_len,
                    score: overlap as i32,
                };
                let (fwd, bwd) = elba::align::dovetail_edges(&aln);
                let (u, v) = (base + i as u64, base + (i + d) as u64);
                triples.push((u, v, fwd));
                triples.push((v, u, bwd));
            }
        }
    }
    let (a, b) = (per_chain as u64 / 2, (per_chain + per_chain / 2) as u64);
    let spurious = triples[0].2;
    triples.push((a, b, spurious));
    triples.push((b, a, spurious));
    (reads, triples)
}

/// Golden wire pin for Algorithm 2: per-rank messages and bytes of the
/// induced-subgraph sub-phase (edge routing + read exchange) and of the
/// whole contig stage at p = 4 on a fixed chain graph. A changed
/// per-destination edge order or read order that kept the totals would
/// still move the contigs; a changed payload moves these.
#[test]
fn contig_stage_wire_traffic_matches_golden_constants() {
    // (msgs, bytes) per rank. n = 408 reads, q = 2: each block range
    // holds 204 vertices, each vector chunk 102. The chains are id-ordered,
    // so all 760 edges of `L` (770 of `S` less the 10 that touch the two
    // branch vertices) sit in the diagonal blocks (376 on rank 0, 384 on
    // rank 3). InducedSubgraph, term by term (a `Vec` books an
    // 8-byte length; an alltoallv books all 4 buffers, its own included):
    // - row-half label fetch, 4 B per `u32` label: the grid-row allgather
    //   is a gather (8 + 102 × 4 = 416 B from ranks 1 and 3) and a bcast
    //   of both chunks (8 + 2 × 416 = 840 B from ranks 0 and 2);
    // - edges, 16 B per `EdgeRecord`: 32 + 16 × 376 = 6048 B on rank 0,
    //   32 + 16 × 384 = 6176 B on rank 3, 32 B of empty buffers on 1 and 2;
    // - read headers, 8 B per `(u32, u32)`: 32 + 8 × (100, 102, 102, 102);
    // - packed reads, 30 B per 120-base read: one send of 8 + 30 × reads
    //   to each of the 4 ranks.
    // Rank 0: 840 + 6048 + 832 + 3032 = 10752; rank 1: 416 + 32 + 848 +
    // 3092 = 4388; rank 2: 840 + 32 + 848 + 3092 = 4812; rank 3: 416 +
    // 6176 + 848 + 3092 = 10532. At `u64` width these were 17984, 6844,
    // 7676, 17492: 32-byte `(u64, u64, SgEdge)` edges, 12-byte `(u64,
    // u32)` headers, `u64` labels in both halves of the Fig. 2 exchange.
    // The column half was a 1640-byte swap with the transposed rank on
    // ranks 1 and 2; it is gone, so each sends one message fewer.
    const INDUCED_SUBGRAPH: [(u64, u64); 4] = [(8, 10752), (9, 4388), (8, 4812), (9, 10532)];
    // The rest of ExtractContig moved by the `u32` degrees and FastSV:
    // - BranchRemoval and GreedyPartitioning each reduce-scatter 204
    //   `u32` degrees: −816 B per rank each;
    // - ConnectedComponent (contraction scatter, and each round's
    //   gather, `(f, gp)` fetch and proposals at `u32`): −2400, −2448,
    //   −3264, −1584 B.
    // So 27516, 15662, 18788, 24362 B at `u64` width fell by 11264, 6536,
    // 7760, 10176 B.
    const EXTRACT_CONTIG: [(u64, u64); 4] = [(27, 16252), (33, 9126), (30, 11028), (31, 14186)];
    let (reads, triples) = fixed_chain_graph(24, 17, 70);
    let n = reads.len();
    let (out, profile) = Runner::new(Backend::InProcess)
        .ranks(4)
        .run_profiled(move |comm| {
            let grid = ProcGrid::new(comm);
            let store = ReadStore::from_replicated(&grid, &reads);
            let world = grid.world();
            let share = |rank: usize| triples.len() * rank / world.size();
            let mine = triples[share(world.rank())..share(world.rank() + 1)].to_vec();
            let s = DistMat::from_triples(&grid, n, n, mine, |_, _| unreachable!());
            let (local, stats) = contig_generation(&grid, &s, &store, &ContigConfig::default());
            (gather_contigs(&grid, &local), stats)
        });
    let (contigs, stats) = &out[0];
    // Two chains lose an interior read to the false edge: 22 whole
    // chains + 4 halves.
    assert_eq!(stats.branch_vertices, 2);
    assert_eq!(contigs.len(), 26);
    let traffic = |in_phase: &dyn Fn(&str) -> bool| -> Vec<(u64, u64)> {
        profile
            .rank_profiles()
            .iter()
            .map(|rank| {
                let mut total = (0u64, 0u64);
                for name in profile.phase_names().iter().filter(|n| in_phase(n)) {
                    if let Some(phase) = rank.phase(name) {
                        total.0 += phase.p2p_msgs + phase.coll_calls();
                        total.1 += phase.bytes_sent();
                    }
                }
                total
            })
            .collect()
    };
    assert_eq!(
        traffic(&|n| n == "ExtractContig:InducedSubgraph"),
        INDUCED_SUBGRAPH,
        "InducedSubgraph (msgs, bytes)"
    );
    assert_eq!(
        traffic(&|n| n.starts_with("ExtractContig:")),
        EXTRACT_CONTIG,
        "ExtractContig:* (msgs, bytes)"
    );
}

/// Golden wire pin for transitive reduction: per-rank messages and bytes
/// of the `TrReduction` phase — the masked sweep's SUMMA stage
/// broadcasts and `symmetrize`'s transpose swap, as the pipeline runs
/// them — at p = 4 on the contig-stage pin's chain graph. Its 770 edges
/// all join overlapping reads, so the sweep removes none; the chain ids
/// put them in the diagonal blocks (386 on rank 0, 384 on rank 3).
///
/// On the 2×2 grid every rank roots one row and one column broadcast of
/// its own 204-row hop block, so each block crosses the wire twice. A
/// block frame books 7 B of varint shape, `nnz` and trailing empty rows
/// (204, 204, `nnz`, 0), 2 B of `(empty rows skipped, len − 1)` per
/// non-empty row, one column-gap varint per edge (two bytes for a row's
/// first column of 128 or more), and 5 B per hop. A diagonal block lists
/// every row: 2 × (7 + 2 × 204 + 461 + 5 × 386) = 5 612 B on rank 0 and
/// 2 × (7 + 2 × 204 + 459 + 5 × 384) = 5 588 B on rank 3, where the
/// fixed-width offsets and column indices took 8 622 and 8 586. An
/// off-diagonal block is empty: 2 × 7 = 14 B on ranks 1 and 2 (its
/// varints 204, 204, 0 and 204 trailing rows). The rest, 48 / 32 / 56 /
/// 24 B, is the transpose swap and the collectives.
#[test]
fn reduction_wire_traffic_matches_golden_constants() {
    // (msgs, bytes) per rank.
    const TR_REDUCTION: [(u64, u64); 4] = [(10, 5660), (11, 46), (11, 70), (10, 5612)];
    let (reads, triples) = fixed_chain_graph(24, 17, 70);
    let n = reads.len();
    let (out, profile) = Runner::new(Backend::InProcess)
        .ranks(4)
        .run_profiled(move |comm| {
            let grid = ProcGrid::new(comm);
            let world = grid.world();
            let share = |rank: usize| triples.len() * rank / world.size();
            let mine = triples[share(world.rank())..share(world.rank() + 1)].to_vec();
            let r = DistMat::from_triples(&grid, n, n, mine, |_, _| unreachable!());
            let block_nnz = r.local().nnz();
            let _g = world.phase("TrReduction");
            let (s, stats) = elba::graph::transitive_reduction_with(
                &grid,
                r,
                5,
                1,
                &elba::sparse::SpGemmOptions::default(),
            );
            let s = elba::graph::symmetrize(&grid, s);
            (block_nnz, stats.removed, s.nnz_global(&grid))
        });
    let blocks: Vec<usize> = out.iter().map(|&(nnz, _, _)| nnz).collect();
    assert_eq!(blocks, [386, 0, 0, 384]);
    assert_eq!((out[0].1, out[0].2), (0, 770), "(removed, kept)");
    let traffic: Vec<(u64, u64)> = profile
        .rank_profiles()
        .iter()
        .map(|rank| {
            let phase = rank.phase("TrReduction").expect("phase recorded");
            (phase.p2p_msgs + phase.coll_calls(), phase.bytes_sent())
        })
        .collect();
    assert_eq!(traffic, TR_REDUCTION, "TrReduction (msgs, bytes)");
}

/// Golden memory pin for transitive reduction: each rank's tracked
/// high-water mark in the `TrReduction` phase at p = 4, on the chain
/// graph at stride 40, where read *i* overlaps *i*+1 and *i*+2 and the
/// sweep removes every *i* ↔ *i*+2 edge.
///
/// A diagonal rank peaks inside the masked sweep. Rank 0 holds 746
/// edges in a block of 204 rows and columns:
/// - its hop block, 205 × 4 B `indptr` + 746 × (4 B index + 8 B hop)
///   = 9 772 B, and the `(pre, post)` side array, 746 × 8 = 5 968 B;
/// - the accumulator, one 4-byte slot per edge, and the 4-byte slot
///   array entry per column: 746 × 4 + 204 × 4 = 3 800 B;
/// - two empty off-diagonal stage blocks, 820 B each (their `indptr`).
///
/// That is 21 180 B; rank 3 (744 edges) is 48 B lower. An off-diagonal
/// rank holds no mask entry; it peaks at its empty block, its slot array
/// and a diagonal stage block (820 + 816 + 9 772 = 11 408 B).
#[test]
fn reduction_memory_high_water_matches_golden_constants() {
    const TR_REDUCTION_HW: [u64; 4] = [21180, 11408, 11408, 21132];
    let (reads, triples) = fixed_chain_graph(24, 17, 40);
    let n = reads.len();
    let (out, profile) = Runner::new(Backend::InProcess)
        .ranks(4)
        .run_profiled(move |comm| {
            let grid = ProcGrid::new(comm);
            let world = grid.world();
            let share = |rank: usize| triples.len() * rank / world.size();
            let mine = triples[share(world.rank())..share(world.rank() + 1)].to_vec();
            let r = DistMat::from_triples(&grid, n, n, mine, |_, _| unreachable!());
            let block_nnz = r.local().nnz();
            let _g = world.phase("TrReduction");
            let (s, stats) = elba::graph::transitive_reduction_with(
                &grid,
                r,
                5,
                1,
                &elba::sparse::SpGemmOptions::default(),
            );
            (block_nnz, stats.removed, s.nnz_global(&grid))
        });
    let blocks: Vec<usize> = out.iter().map(|&(nnz, _, _)| nnz).collect();
    assert_eq!(blocks, [746, 0, 0, 744]);
    assert_eq!((out[0].1, out[0].2), (720, 770), "(removed, kept)");
    let high_water: Vec<u64> = profile
        .rank_profiles()
        .iter()
        .map(|rank| rank.phase("TrReduction").expect("phase entered").mem_hw)
        .collect();
    assert_eq!(high_water, TR_REDUCTION_HW, "TrReduction high-water bytes");
}
