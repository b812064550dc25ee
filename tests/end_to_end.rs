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
/// and their answers (8 B per query; an answer is one varint in a
/// `U32Run`, 0 for an unreliable k-mer and otherwise the column's offset
/// into the owner's range plus one, so 1 or 2 B), routes A's triples to
/// their block owners, and runs the symmetric product's direct block
/// sends: no `Aᵀ` is built and nothing is broadcast. Rank (m, s) sends
/// `A(m, s)` as stored to every other rank (m, j) with j ≥ m, and
/// transposed to every rank (i, m) with i < m. An A entry is one varint,
/// `pos << 1 | fwd`: 1 B below position 64, 2 B below 8 192 (the reads
/// here are shorter), about 2 B on average. A's triples ascend by row
/// and, within a row, by column, so every routed buffer travels as row
/// runs and column gaps, about 3 B a triple where a flat triple took 12.
/// A block frame is its structure — varint shape and `nnz`, `(empty rows
/// skipped, len − 1)` per non-empty row, one column gap per entry, the
/// trailing empty rows — and then the entries. A's 99 read rows split
/// 50 / 49 over the grid rows and its 939 sampled k-mer columns 470 / 469
/// over the grid columns. The column-query column also holds the
/// one-byte `allreduce`s and the offsets' allgather; only the answers in
/// it moved:
///
/// | rank | column queries (answers) | routed triples | blocks sent: (rows, entries) structure + entries | (msgs, bytes) |
/// |---|---:|---:|---|---:|
/// | 0 (0,0) | 39 734 (5 664) | 7 053: 21 082 | A(0,0) (50, 7 175) 7 307 + 14 106 | (46, 82 229) |
/// | 1 (0,1) | 48 120 (4 997) | 8 072: 24 143 | A(0,1) (50, 7 950) 8 086 + 15 674 | (47, 96 023) |
/// | 2 (1,0) | 41 380 (6 766) | 7 152: 21 397 | A(1,0) (49, 5 990) 6 112 + 11 784, A(1,0)ᵀ (470, 5 990) 6 892 + 11 784 | (48, 99 349) |
/// | 3 (1,1) | 32 001 (6 278) | 5 418: 16 183 | A(1,1)ᵀ (469, 6 580) 7 496 + 12 926 | (47, 68 606) |
///
/// At 4 B per answer (after an 8-byte length) and 4 B per entry the
/// answers took 16 808, 15 040, 18 880 and 18 572 B, the routed triples
/// 35 425, 40 520, 35 916 and 27 234 B, and the ranks booked
/// (46, 122 310), (47, 138 569), (48, 150 334) and (47, 105 345). Rank 2
/// sits below the diagonal: it multiplies nothing and only sends its
/// block, as stored to (1,1) and transposed to (0,1). A has 27 695
/// entries; with every k-mer kept (and 4-byte answers and entries) it
/// had 5 687 columns and 170 073 entries, and the ranks booked
/// (234, 900 097), (235, 968 539), (236, 1 047 592) and (235, 754 869).
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
/// | 0 | (46, 82 229) | (2, 32) | (48, 82 261) |
/// | 1 | (47, 96 023) | (2, 16) | (49, 96 039) |
/// | 2 | (48, 99 349) | (2, 32) | (50, 99 381) |
/// | 3 | (47, 68 606) | (2, 16) | (49, 68 622) |
///
/// While the budget cut `C` into column windows, this run shipped each
/// block's pattern in an estimate pass, then the fetch once per window
/// (three), and agreed the round count in four more `allreduce`s: it
/// booked (59, 201 711), (60, 226 467), (64, 284 486) and (60, 179 723)
/// with 4-byte answers and entries.
///
/// Every other wire check compares two live runs (transports, thread
/// counts, budgets), so a reordered record stream that moved both sides
/// would pass them; this one compares against fixed numbers.
#[test]
fn kmer_stage_wire_traffic_matches_golden_constants() {
    // (msgs, bytes) per rank.
    const COUNT_KMER: [(u64, u64); 4] = [(36, 47316), (36, 59183), (36, 50316), (35, 36348)];
    const DETECT_OVERLAP: [(u64, u64); 4] = [(46, 82229), (47, 96023), (48, 99349), (47, 68606)];
    const DETECT_OVERLAP_BUDGETED: [(u64, u64); 4] =
        [(48, 82261), (49, 96039), (50, 99381), (49, 68622)];
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
/// (18, 23 412)]`; before the contained mask packed eight reads to a
/// byte, `[(14, 54 769), (22, 81 719), (18, 96 072), (18, 23 006)]`;
/// before the read fetch asked for the named reads alone, `[(14,
/// 54 508), (22, 81 326), (18, 95 547), (18, 22 877)]`; before a rank
/// that gets no read got no payload message, `[(18, 28 477), (24,
/// 27 921), (21, 51 091), (21, 22 959)]`. Per rank,
/// `(msgs, bytes)`, or bytes one pass → three passes where the messages
/// (1, 2 and 1) did not move, the marks one pass → three passes → with
/// the bound, the mask bytes a byte per read → packed, and the read
/// fetch block ranges → named reads:
///
/// | rank | read fetch | two mask rounds | marks | stats | `R` triples | mask fetch |
/// |---|---|---|---|---|---|---|
/// | 0 | (2, 53 606) → (3, 27 551) | (6, 554 → 380) | 1 877 → 167 → 52 | 144 → 160 | 69 200 → 272 | (2, 125 → 38) |
/// | 1 | (4, 79 693) → (3, 26 264) | (10, 1 108 → 846) | 6 222 → 532 → 57 | 72 → 80 | 110 729 → 614 | (4, 167 → 36) |
/// | 2 | (3, 95 082) → (4, 50 610) | (8, 532 → 182) | 32 → 32 → 32 | 144 → 160 | 32 → 32 | (3, 234 → 59) |
/// | 3 | (3, 22 240) → (3, 22 298) | (8, 415 → 329) | 1 872 → 187 → 37 | 72 → 80 | 56 048 → 176 | (3, 58 → 15) |
///
/// - The read fetch (`ReadStore::fetch_named`) asks each owner for the
///   reads the rank's block of `C` names and it lacks, and the owners
///   answer with the reads' packed codes and their `ReadHeaders`: a
///   varint count, then per read a one-byte id gap (two for a run's
///   first id of 128 or more) and a two-byte length (the reads have 797
///   to 5 831 bases). `C` is dense here, so a block above the diagonal
///   names its whole row and column ranges; the chunks hold 51, 50, 51
///   and 50 reads. It is two `alltoallv`s per rank, and one payload send
///   (an 8-byte length, then the packed reads) to each rank the headers
///   name a read for; a rank that gets no read gets no payload message
///   (four sends a rank, 11 of them empty, before):
///   - rank 0's diagonal block lacks chunk 1: it asks rank 1 for 50
///     ids (51 B, 1 B to each other rank) and answers rank 1's ask for
///     chunk 0, 51 reads: 154 B of headers, 27 332 packed. 54 + 157 +
///     27 340.
///   - rank 1's block (row range 0, column range 1) lacks chunks 0, 2
///     and 3: it asks 52 + 52 + 52 B (+1 to itself) and answers rank 0
///     with chunk 1, 151 B of headers and 25 945 packed. 157 + 154 +
///     25 953.
///   - rank 2's block, below the diagonal, is empty: it asks nothing
///     (4 × 1 B) and receives no read. Ranks 1 and 3 both ask it for
///     chunk 2, so it ships those 51 reads twice, 154 + 25 140 B each
///     time. 4 + 310 + 50 296.
///   - rank 3's diagonal block lacks chunk 2: it asks rank 2 (52 B) and
///     answers rank 1 with chunk 3, 152 B of headers and 22 080 packed.
///     55 + 155 + 22 088.
///
///   Before, a grid-row allgather of the chunks and, off the diagonal,
///   a swap of the row's reads with the transposed rank shipped every
///   read of the block's row and column ranges: 53 606, 79 693, 95 082
///   and 22 240 B in 2, 4, 3 and 3 messages. Rank 3 still ships its
///   chunk once (to rank 1 now, to rank 2 before) and 58 B more of asks
///   and headers; the other ranks ship about half or less.
/// - Each mask round and `overlap_graph`'s mask fetch run one
///   `fetch_aligned` of the contained mask, a `Vec<bool>` that packs
///   eight reads to a byte: a grid-row gather of a 50-read chunk, 8 + 7 =
///   15 B, from ranks 1 and 3 (58 at a byte per read); its bcast of two
///   chunks, 8 + 2 × 15 = 38 B, from ranks 0 and 2 (125); and a
///   101-read transpose swap, 8 + 13 = 21 B, from ranks 1 and 2 (109).
///   So each of the three fetches sends 87, 131, 175 and 43 B fewer.
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
    const ALIGNMENT: [(u64, u64); 4] = [(15, 28453), (21, 27897), (19, 51075), (18, 22935)];
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

/// Golden wire pin for Algorithm 2: per-rank messages and bytes of each
/// `ExtractContig:*` sub-phase at p = 4 on a fixed chain graph. A changed
/// per-destination edge order or read order that kept the totals would
/// still move the contigs; a changed payload moves these.
///
/// n = 408 reads in 24 chains of 17, q = 2: each block range holds 204
/// vertices and rank r's vector chunk is ids 102r..102r + 101, six whole
/// chains. The chains are id-ordered, so all 760 edges of `L` (770 of `S`
/// less the 10 that touch the two branch vertices, ids 8 and 25) sit in
/// the diagonal blocks (376 on rank 0, 384 on rank 3). A `Vec` books an
/// 8-byte length; an alltoallv and a reduce-scatter book every buffer,
/// the rank's own included; a bcast books each tree send (rank 0 sends
/// two on the world, rank 2 one; each grid row's root one); a reduce
/// sends 8 B per `u64` from ranks 1, 2 and 3; a gather's sender books two
/// calls. Messages are (collective calls + p2p sends).
///
/// - BranchRemoval: `row_degrees` reduce-scatters two chunks of 102
///   degrees as plain `U32Run`s, a varint count and a one-byte varint per
///   degree (all are below 128): 2 × (1 + 102) = 206 B on every rank,
///   where `u32` degrees after an 8-byte length took 832. The branch
///   count's allreduce: 8 B of reduce from ranks 1–3, 16 / 8 B of bcast
///   from ranks 0 / 2. `mask_rows_cols` fetches the mask, a `Vec<bool>`
///   packed eight to a byte: a grid-row gather of 8 + ⌈102 / 8⌉ = 21 B
///   from ranks 1 and 3, its bcast of 8 + 2 × 21 = 50 B from 0 and 2, and
///   a 8 + ⌈204 / 8⌉ = 34 B transpose swap from 1 and 2 (at a byte per
///   `bool`, 110, 228 and 212 B). Rank 0: 206 + 16 + 50 = 272; rank 1:
///   206 + 8 + 21 + 34 = 269; rank 2: 206 + 8 + 8 + 50 + 34 = 306; rank
///   3: 206 + 8 + 21 = 235 (450, 536, 662 and 324 before).
/// - ConnectedComponent (one round), where every fetched pair and
///   update travels as a `U32Run` varint of its distance below a vertex:
///   the grandparent `gather`'s two alltoallvs of empty `Vec<u32>`s,
///   2 × 32 = 64 B; the
///   contraction's and the proposals' alltoallvs of `AtVertices` runs, an
///   empty run 1 B, so 4 B each. The contraction adds 96 updates (the 102
///   vertices of the off-diagonal chunk less its six chain roots) from
///   rank 0 to 1 and from rank 3 to 2: a two-byte count, then per update
///   a one-byte vertex gap (two for rank 3's first vertex, 205) and a
///   one-byte `vertex − root − 1` (a chain has 17 reads), 3 + 194 = 197 B
///   from rank 0 and 3 + 195 = 198 B from rank 3. The round asks for no
///   remote parent and proposes nothing. The `(f, gp)` fetch ships
///   `PerVertex<2>` runs: a two-byte count (204 values), the first vertex
///   (1 B for 0 and 102, 2 B for 204 and 306) and per vertex `v − f` and
///   `f − gp`, 1 B each (`f` is the chain's root after the contraction,
///   and so is `gp`). It gathers 2 + 1 + 204 = 207 B from rank 1 and 208 B
///   from rank 3, bcasts 8 + 2 × 207 = 422 B from rank 0 and 8 + 2 × 208
///   = 424 B from rank 2, and swaps a 408-value row range, 2 + 1 + 408 =
///   411 B from rank 1 and 2 + 2 + 408 = 412 B from rank 2; the `changed`
///   allreduce is the branch count's. Rank 0: 64 + 197 + 4 + 422 + 16 =
///   703; rank 1: 64 + 4 + 4 + 207 + 411 + 8 = 698; rank 2: 64 + 4 + 4 +
///   424 + 8 + 8 + 412 = 924; rank 3: 64 + 198 + 4 + 208 + 8 = 482. With
///   every label a `u32` after an 8-byte length they took 2 568, 2 600,
///   3 440 and 1 728.
/// - GreedyPartitioning: `row_degrees` of `L`, 206 B (832 at `u32`);
///   the label sizes gathered at rank 0 as `(u64, u64)` pairs, 8 + 16 × 6
///   = 104 B from each other rank; the bcast of the 26-entry assignment
///   (8 + 16 × 26 = 424 B) and of five `u64` stats (48 B): 2 × 472 = 944
///   B from rank 0, 472 from rank 2.
/// - InducedSubgraph:
///   - row-half label fetch, a `PerVertex<1>` run of `v − label` per
///     chunk: a one-byte count, the first vertex (1 B for 0 and 102, 2 B
///     for 204 and 306) and a byte per label (each is within 16 of its
///     vertex): a gather of 1 + 1 + 102 = 104 B from rank 1 and 105 B
///     from rank 3 and a bcast of 8 + 2 × 104 = 216 B from rank 0 and
///     8 + 2 × 105 = 218 B from rank 2 (at 4 B per `u32` label, 416 and
///     840 B);
///   - edges, one `RoutedTriples` run per destination: an 8-byte header
///     per buffer (32 B, all that ranks 1 and 2 send); per non-empty row
///     a row gap and a run length, 2 B (3 B for a buffer's first row of
///     128 or more, one per buffer on rank 3); per edge a column gap, 1 B
///     (2 B for a row's first column of 128 or more: rows 129–203 on rank
///     0, all 204 rows on rank 3), and the walk edge's two varints. A
///     coordinate below 64 takes one byte, 64–119 two, so each edge
///     between reads on one strand costs 3 B, and between reads on
///     opposite strands 4 B when the read further left in the genome is
///     forward, 2 B when it is reverse. Rank 0's 188 read pairs are 97,
///     44 and 47 of those kinds, 2 × (3 × 97 + 4 × 44 + 2 × 47) = 1 122 B
///     for 376 edges in 202 rows; rank 3's 192 are 77, 57 and 58, 1 150 B
///     for 384 edges in 204 rows. Rank 0: 32 + 2 ×
///     202 + 376 + 75 + 1 122 = 2 009; rank 3: 32 + 2 × 204 + 4 + 384 +
///     204 + 1 150 = 2 182. At 16 B per fixed-width edge record they took
///     6 048 and 6 176.
///   - read headers, one `ReadHeaders` per destination: a one-byte count
///     (4 B), then per read a one-byte id gap and a one-byte length (120
///     bases), and one byte more for a buffer's first id of 128 or more
///     (two of rank 1's buffers, all four of ranks 2 and 3): 204, 210,
///     212 and 212 B for 100, 102, 102 and 102 reads, where 8 B per
///     `(u32, u32)` took 832 and 848;
///   - packed reads, 30 B per 120-base read: one send of 8 + 30 × reads
///     to each of the 4 ranks. `ReadStore::exchange` sends no payload to
///     a rank it ships no read to, but here every rank gets reads from
///     every rank, so all 16 sends carry reads.
///
///   Rank 0: 216 + 2 009 + 204 + 3 032 = 5 461; rank 1: 104 + 32 + 210 +
///   3 092 = 3 438; rank 2: 218 + 32 + 212 + 3 092 = 3 554; rank 3: 105 +
///   2 182 + 212 + 3 092 = 5 591 (6 085, 3 750, 4 176 and 5 902 with `u32`
///   labels).
/// - LocalAssembly: the allreduce of four `u64` stats, 40 B of reduce
///   from ranks 1–3, 80 / 40 B of bcast from ranks 0 / 2.
#[test]
fn contig_stage_wire_traffic_matches_golden_constants() {
    // (msgs, bytes) per rank, per sub-phase.
    const SUB_PHASES: [(&str, [(u64, u64); 4]); 5] = [
        (
            "ExtractContig:BranchRemoval",
            [(5, 272), (7, 269), (6, 306), (6, 235)],
        ),
        (
            "ExtractContig:ConnectedComponent",
            [(8, 703), (10, 698), (9, 924), (9, 482)],
        ),
        (
            "ExtractContig:GreedyPartitioning",
            [(4, 1150), (5, 310), (5, 782), (5, 310)],
        ),
        (
            "ExtractContig:InducedSubgraph",
            [(8, 5461), (9, 3438), (8, 3554), (9, 5591)],
        ),
        (
            "ExtractContig:LocalAssembly",
            [(2, 80), (2, 40), (2, 80), (2, 40)],
        ),
    ];
    const EXTRACT_CONTIG: [(u64, u64); 4] = [(27, 7666), (33, 4755), (30, 5646), (31, 6658)];
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
    assert_eq!(stats.cc_rounds, 1);
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
    for (name, pinned) in SUB_PHASES {
        assert_eq!(traffic(&|n| n == name), pinned, "{name} (msgs, bytes)");
    }
    let sub_phases = profile.phase_names();
    let sub_phases = sub_phases
        .iter()
        .filter(|n| n.starts_with("ExtractContig:"));
    assert_eq!(
        sub_phases.count(),
        SUB_PHASES.len(),
        "every sub-phase pinned"
    );
    assert_eq!(
        traffic(&|n| n.starts_with("ExtractContig:")),
        EXTRACT_CONTIG,
        "ExtractContig:* (msgs, bytes)"
    );
}

/// Golden wire pin for transitive reduction: per-rank messages and bytes
/// of the `TrReduction` phase — the masked sweep's stage fetch and
/// `symmetrize`'s transpose swap, as the pipeline runs them — at p = 4
/// on the contig-stage pin's chain graph. Its 770 edges all join
/// overlapping reads, so the sweep removes none; the chain ids put them
/// in the diagonal blocks (386 on rank 0, 384 on rank 3).
///
/// On the 2×2 grid every rank has one row peer and one column peer.
/// It names its mask block's non-empty rows to the first and its
/// occupied columns to the second: a `Vec<bool>` of 204 entries packs
/// into 26 B behind its 8-byte length, so 2 × 34 = 68 B. It then sends
/// each peer its own block cut to what the peer named, 2 messages. The
/// off-diagonal ranks hold no mask entry and name nothing, so a diagonal
/// rank sends them its block cut to nothing, and an off-diagonal rank's
/// block is empty: every reply is an empty block frame, 7 B of varint
/// shape, `nnz` and trailing empty rows (204, 204, 0, 204). That is
/// 68 + 2 × 7 = 82 B on every rank, in 4 messages. While the stage
/// blocks were broadcast whole, each diagonal rank shipped its 204-row
/// hop block twice: 3 296 B on rank 0 and 3 284 on rank 3 (14 on ranks
/// 1 and 2). The rest, 48 / 32 / 56 / 24 B, is the transpose swap and
/// the collectives.
#[test]
fn reduction_wire_traffic_matches_golden_constants() {
    // (msgs, bytes) per rank.
    const TR_REDUCTION: [(u64, u64); 4] = [(10, 130), (11, 114), (11, 138), (10, 106)];
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
/// and the diagonal block cut to the rows it names, none: 820 + 816 +
/// 820 = 2 456 B. While stage blocks were broadcast whole, that third
/// term was the 9 772-B diagonal block (11 408 B).
#[test]
fn reduction_memory_high_water_matches_golden_constants() {
    const TR_REDUCTION_HW: [u64; 4] = [21180, 2456, 2456, 21132];
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
