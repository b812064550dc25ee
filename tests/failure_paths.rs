//! Failure-injection and edge-case integration tests: tiny inputs,
//! degenerate graphs, the large-message contiguous-datatype path, and
//! invalid configurations.

use elba::prelude::*;

#[test]
fn empty_read_set() {
    let contigs = Runner::new(Backend::InProcess).ranks(4).run(|comm| {
        let grid = ProcGrid::new(comm);
        let (contigs, _) = assemble_gathered(&grid, &[], &PipelineConfig::default());
        contigs.len()
    });
    assert!(contigs.iter().all(|&n| n == 0));
}

#[test]
fn a_read_set_of_2_32_reads_is_refused_with_its_own_exit_code() {
    use elba::core::job::ReadsError;
    use elba::exit;
    use elba::seq::TooManyReads;
    // Only the count is checked, so nothing of that size is allocated.
    let refused = TooManyReads::check(1 << 32).expect_err("ids would pass u32");
    let error = ReadsError::TooMany(format!("reads.fa: {refused}"));
    assert_eq!(
        error.to_string(),
        "reads.fa: 4294967296 reads; a read set is limited to 4294967295 (read ids are 32-bit)"
    );
    let mut codes = vec![
        exit::FAILURE,
        exit::USAGE,
        exit::READ_TOO_LONG,
        exit::TOO_MANY_READS,
        exit::RANK_FAILED,
        exit::LAUNCH_TIMEOUT,
        exit::PEER_GONE,
        exit::FAULT_KILLED,
    ];
    codes.sort_unstable();
    codes.dedup();
    assert_eq!(codes.len(), 8, "every exit code is distinct");
}

#[test]
fn single_read_produces_no_contig() {
    // A contig needs >= 2 reads by definition (§4.4).
    let read: Seq = "ACGTACGTACGTACGTACGTACGTACGTAAACCCGGGTTT"
        .parse()
        .expect("dna");
    let contigs = Runner::new(Backend::InProcess).ranks(4).run(move |comm| {
        let grid = ProcGrid::new(comm);
        let (contigs, _) = assemble_gathered(
            &grid,
            std::slice::from_ref(&read),
            &PipelineConfig::default(),
        );
        contigs.len()
    });
    assert!(contigs.iter().all(|&n| n == 0));
}

#[test]
fn disjoint_reads_produce_no_contigs() {
    // Reads sharing no k-mers: the candidate matrix is empty.
    let spec = DatasetSpec::celegans_like(0.02, 1);
    let (_, a) = spec.generate();
    let spec_b = DatasetSpec::celegans_like(0.02, 2);
    let (_, b) = spec_b.generate();
    // take one read from each of two unrelated genomes
    let reads: Vec<Seq> = vec![a[0].seq.clone(), b[0].seq.clone()];
    let out = Runner::new(Backend::InProcess).ranks(4).run(move |comm| {
        let grid = ProcGrid::new(comm);
        let result = assemble(&grid, &reads, &PipelineConfig::default());
        (result.candidate_nnz, result.contig_stats.assembly.contigs)
    });
    assert!(out.iter().all(|&(_, contigs)| contigs == 0));
}

#[test]
fn tiny_mpi_count_limit_still_correct() {
    // Force every sequence exchange through the contiguous-datatype path
    // (the paper's 2^31-1 workaround) with an absurdly small limit.
    let spec = DatasetSpec::celegans_like(0.06, 17);
    let (_genome, sim_reads) = spec.generate();
    let reads: Vec<Seq> = sim_reads.into_iter().map(|r| r.seq).collect();
    let mut cfg = PipelineConfig::for_dataset(&spec);

    let reads_a = reads.clone();
    let cfg_a = cfg.clone();
    let normal = Runner::new(Backend::InProcess)
        .ranks(4)
        .run(move |comm| {
            let grid = ProcGrid::new(comm);
            let (contigs, _) = assemble_gathered(&grid, &reads_a, &cfg_a);
            contigs
                .iter()
                .map(|c| c.seq.to_string())
                .collect::<Vec<_>>()
        })
        .remove(0);

    cfg.contig.count_limit = 64; // packed bytes: 256 bases!
    let reads_b = reads;
    let limited = Runner::new(Backend::InProcess)
        .ranks(4)
        .run(move |comm| {
            let grid = ProcGrid::new(comm);
            let (contigs, _) = assemble_gathered(&grid, &reads_b, &cfg);
            contigs
                .iter()
                .map(|c| c.seq.to_string())
                .collect::<Vec<_>>()
        })
        .remove(0);

    assert_eq!(normal, limited, "count-limit path must not change results");
}

#[test]
#[should_panic(expected = "perfect square")]
fn non_square_rank_count_is_rejected() {
    Runner::new(Backend::InProcess).ranks(6).run(|comm| {
        let _grid = ProcGrid::new(comm);
    });
}

#[test]
fn duplicate_reads_are_handled_as_containments() {
    // Exact duplicate reads contain each other; the pipeline must not
    // crash and must drop one of them.
    let spec = DatasetSpec::celegans_like(0.04, 23);
    let (_genome, sim_reads) = spec.generate();
    let mut reads: Vec<Seq> = sim_reads.into_iter().map(|r| r.seq).collect();
    let dup = reads[0].clone();
    reads.push(dup);
    let cfg = PipelineConfig::for_dataset(&spec);
    let out = Runner::new(Backend::InProcess).ranks(4).run(move |comm| {
        let grid = ProcGrid::new(comm);
        let result = assemble(&grid, &reads, &cfg);
        result.align_stats.contained
    });
    assert!(out[0] >= 1, "duplicate read should be flagged contained");
}

#[test]
fn all_identical_reads_collapse() {
    let base: Seq = "ACGTTGCAACGTGGATCCATTTACGGCAATCGGTTACCAGGTTCAAGCCAGTTACGGA"
        .parse()
        .expect("dna");
    let reads: Vec<Seq> = vec![base; 8];
    let mut cfg = PipelineConfig::default();
    cfg.kmer.k = 15;
    cfg.overlap.k = 15;
    cfg.overlap.min_overlap = 10;
    let out = Runner::new(Backend::InProcess).ranks(4).run(move |comm| {
        let grid = ProcGrid::new(comm);
        let (contigs, result) = assemble_gathered(&grid, &reads, &cfg);
        (contigs.len(), result.align_stats.contained)
    });
    // identical reads mutually contain; at most a trivial contig remains
    assert!(out[0].1 >= 7 || out[0].0 <= 1);
}

// ---- transport wire format: hostile-input rejection ----
// A socket peer can die mid-write or (in principle) hand us garbage;
// the frame layer must turn every such input into a clean `WireError`,
// never a panic, an over-allocation, or a silently wrong value.

/// Hostile numbers on the command line: a usage error (exit 2, one
/// `error:` line), never a backtrace, an abort or a silently empty file.
/// The same for a missing required flag, a closed stdout (exit 1) and a
/// reference `evaluate` cannot score (exit 1).
mod hostile_cli_values {
    use std::path::{Path, PathBuf};
    use std::process::{Command, Output, Stdio};

    fn elba(args: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_elba"))
            .args(args)
            .output()
            .expect("run elba")
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("elba-hostile-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn assert_usage_error(out: &Output, what: &str) {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{what}: stderr:\n{stderr}");
        assert!(
            stderr.lines().count() == 1 && stderr.starts_with("error: "),
            "{what}: exactly one error line:\n{stderr}"
        );
        assert!(!stderr.contains("panicked at"), "{what}:\n{stderr}");
    }

    #[test]
    fn simulate_rejects_a_scale_it_cannot_generate() {
        let dir = scratch("simulate");
        let reads = dir.join("reads.fa");
        let reads_arg = reads.to_str().expect("utf-8 temp path");
        for scale in ["nan", "-1", "0", "1e12", "inf", "1e-9"] {
            let out = elba(&[
                "simulate",
                "--dataset",
                "celegans",
                "--scale",
                scale,
                "--reads",
                reads_arg,
            ]);
            assert_usage_error(&out, &format!("--scale {scale}"));
            assert!(!reads.exists(), "--scale {scale}: nothing may be written");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A malformed job line is rejected while the others run. A batch
    /// whose lines name one job twice, or whose jobs would race on a
    /// file one of them writes, is a usage error naming both lines.
    #[test]
    fn serve_rejects_a_malformed_job_line_and_runs_the_rest() {
        let dir = scratch("serve");
        let reads = tiny_reads(&dir);
        let jobs = dir.join("jobs.txt");
        let (reads, jobs_arg) = (path_arg(&reads), path_arg(&jobs));
        let [out0, out1] = ["j0.fa", "j1.fa"].map(|name| dir.join(name));
        let (o0, o1) = (path_arg(&out0), path_arg(&out1));
        let serve = |lines: String| {
            std::fs::write(&jobs, lines).expect("write job file");
            elba(&[
                "serve",
                "--jobs",
                jobs_arg,
                "--groups",
                "1",
                "--group-ranks",
                "1",
            ])
        };

        let out = serve(format!(
            "j0: --reads {reads} --out {o0} --k 0\nj1: --reads {reads} --out {o1}\n"
        ));
        let (stdout, stderr) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        // a reject makes the batch exit 1; what matters is that it exits
        assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
        assert!(!stderr.contains("panicked at"), "{stderr}");
        assert!(stdout.contains("job j0 (line 1): REJECTED"), "{stdout}");
        assert!(stdout.contains("job j1: completed"), "{stdout}");
        assert!(stdout.contains("completed=1 failed=0 fault-killed=0 rejected=1"));
        assert!(!out0.exists() && out1.exists());

        for (lines, message) in [
            (
                format!("a: --reads {reads} --out {o0}\nb: --reads {reads} --out {o0}\n"),
                format!("jobs lines 1 and 2 both name '{o0}'"),
            ),
            (
                format!("a: --reads {reads} --out {o0}\nb: --reads {o0} --out {o1}\n"),
                format!("jobs lines 1 and 2 both name '{o0}'"),
            ),
            (
                format!("a: --reads {reads} --out {o0}\n\nb: --reads {reads} --gfa {o0}\n"),
                format!("jobs lines 1 and 3 both name '{o0}'"),
            ),
            (
                format!("a: --reads {reads} --out {o0}\na: --reads {reads} --out {o1}\n"),
                "jobs lines 1 and 2 both name job 'a'".to_owned(),
            ),
        ] {
            let out = serve(lines);
            assert_usage_error(&out, &message);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains(&message), "{stderr}");
            assert!(out.stdout.is_empty(), "{message}: no job ran");
        }

        // A job's `--threads` is its own: `serve` has no such flag.
        let out = elba(&["serve", "--jobs", jobs_arg, "--threads", "0"]);
        assert_usage_error(&out, "serve --threads 0");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown flag --threads for 'serve'"),
            "{stderr}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn path_arg(path: &Path) -> &str {
        path.to_str().expect("utf-8 temp path")
    }

    /// Write one record per name, each the same short sequence.
    fn write_records(path: &Path, names: &[&str]) {
        let seq = "ACGTTGCAACGTGGATCCATTTACGGCAATCGGTTACCAGGTTCAAGCCAGTTACGGA";
        let fasta: String = names.iter().map(|n| format!(">{n}\n{seq}\n")).collect();
        std::fs::write(path, fasta).expect("write fasta");
    }

    /// Two short reads: enough for `assemble` to start its ranks and print.
    fn tiny_reads(dir: &Path) -> PathBuf {
        let reads = dir.join("reads.fa");
        write_records(&reads, &["r0", "r1"]);
        reads
    }

    #[test]
    fn assemble_without_reads_or_out_starts_no_rank() {
        let dir = scratch("required");
        let reads = tiny_reads(&dir);
        let contigs = dir.join("contigs.fa");
        let sock = dir.join("sock");
        let (reads, contigs, sock_arg) = (path_arg(&reads), path_arg(&contigs), path_arg(&sock));
        for (args, missing) in [
            (vec!["assemble", "--reads", reads, "--ranks", "1"], "--out"),
            (
                vec!["assemble", "--out", contigs, "--ranks", "1"],
                "--reads",
            ),
            (
                vec![
                    "launch",
                    "--socket-dir",
                    sock_arg,
                    "--",
                    "assemble",
                    "--reads",
                    reads,
                ],
                "--out",
            ),
        ] {
            let out = elba(&args);
            assert_usage_error(&out, &format!("{args:?}"));
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(&format!("missing required flag {missing}")),
                "{args:?}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "{args:?}: no rank ran");
            assert!(!sock.exists(), "{args:?}: no worker was spawned");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_closed_stdout_is_a_typed_failure_not_a_panic() {
        let dir = scratch("stdout");
        let reads = tiny_reads(&dir);
        let contigs = dir.join("contigs.fa");
        // `elba … | head -0`: the read end is closed before the child
        // starts, so no write of its can land in the pipe buffer first.
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_elba"))
            .args(["assemble", "--ranks", "1", "--reads", path_arg(&reads)])
            .args(["--out", path_arg(&contigs)])
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("run elba");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
        assert!(
            stderr.lines().count() == 1 && stderr.starts_with("error: "),
            "exactly one error line:\n{stderr}"
        );
        assert!(!stderr.contains("panicked at"), "{stderr}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evaluate_refuses_a_multi_record_reference() {
        let dir = scratch("evaluate");
        let (reference, contigs) = (dir.join("genome.fa"), dir.join("contigs.fa"));
        write_records(&reference, &["g0", "g1"]);
        write_records(&contigs, &["c0"]);
        let out = elba(&[
            "evaluate",
            "--reference",
            path_arg(&reference),
            "--contigs",
            path_arg(&contigs),
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
        assert!(
            stderr.contains("reference FASTA holds 2 records; evaluate scores one genome"),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "no score is printed");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

mod wire_rejection {
    use elba::comm::transport::wire::{
        FrameHeader, FrameKind, WireError, WireReader, FRAME_HEADER_BYTES, MAX_FRAME_LEN,
    };
    use elba::comm::CommMsg;

    fn valid_header_bytes() -> Vec<u8> {
        let mut buf = Vec::new();
        FrameHeader {
            kind: FrameKind::Data,
            ctx: 7,
            src: 3,
            tag: 0xbeef,
            len: 128,
        }
        .encode(&mut buf);
        assert_eq!(buf.len(), FRAME_HEADER_BYTES);
        buf
    }

    #[test]
    fn garbage_magic_is_rejected() {
        let mut bytes = valid_header_bytes();
        bytes[0] = b'X';
        let arr: [u8; FRAME_HEADER_BYTES] = bytes.try_into().expect("size");
        assert!(matches!(
            FrameHeader::decode(&arr),
            Err(WireError::Malformed("frame magic"))
        ));
    }

    #[test]
    fn unknown_frame_kind_is_rejected() {
        let mut bytes = valid_header_bytes();
        bytes[4] = 0xff; // kind byte follows the 4-byte magic
        let arr: [u8; FRAME_HEADER_BYTES] = bytes.try_into().expect("size");
        assert!(matches!(
            FrameHeader::decode(&arr),
            Err(WireError::Malformed("frame kind"))
        ));
    }

    #[test]
    fn absurd_payload_length_is_rejected_not_allocated() {
        let mut buf = Vec::new();
        FrameHeader {
            kind: FrameKind::Data,
            ctx: 0,
            src: 0,
            tag: 1,
            len: MAX_FRAME_LEN + 1,
        }
        .encode(&mut buf);
        let arr: [u8; FRAME_HEADER_BYTES] = buf.try_into().expect("size");
        assert!(matches!(
            FrameHeader::decode(&arr),
            Err(WireError::Malformed("frame length"))
        ));
    }

    #[test]
    fn truncated_payload_reports_truncation() {
        let mut buf = Vec::new();
        vec![1u64, 2, 3, 4].wire_encode(&mut buf);
        // Cut inside the element data (past the length prefix).
        let mut reader = WireReader::new(&buf[..buf.len() - 5]);
        assert!(matches!(
            Vec::<u64>::wire_decode(&mut reader),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn oversized_vec_length_prefix_is_rejected() {
        // A length prefix claiming 2^63 elements must fail fast on the
        // MAX_VEC_ELEMS cap, not attempt a with_capacity.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(1u64 << 63).to_ne_bytes());
        let mut reader = WireReader::new(&buf);
        assert!(Vec::<u64>::wire_decode(&mut reader).is_err());
    }

    #[test]
    fn invalid_utf8_string_is_rejected() {
        let mut buf = Vec::new();
        vec![0xffu8, 0xfe, 0xfd].wire_encode(&mut buf);
        let mut reader = WireReader::new(&buf);
        assert!(matches!(
            String::wire_decode(&mut reader),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn trailing_bytes_are_an_error_not_ignored() {
        let mut buf = Vec::new();
        42u64.wire_encode(&mut buf);
        buf.push(0);
        let mut reader = WireReader::new(&buf);
        assert_eq!(u64::wire_decode(&mut reader).expect("value decodes"), 42);
        assert!(matches!(reader.finish(), Err(WireError::Trailing(1))));
    }

    #[test]
    fn inconsistent_csr_structure_is_rejected() {
        // Structurally broken panels (indptr not matching indices) must
        // be caught by the decoder's validation, not crash a kernel.
        // Every row holds an entry, so the frame ships all 5 offsets
        // (a block with empty rows may list its non-empty ones instead,
        // and those stay consistent under a taller shape).
        let triples = vec![(0, 1, 1.0), (1, 0, 3.0), (2, 3, 2.0), (3, 3, 4.0)];
        let good = elba::sparse::Csr::<f64>::from_triples(4, 4, triples, |_, _| ());
        let mut buf = Vec::new();
        good.wire_encode(&mut buf);
        // nrows is the first u64 of the encoding; growing it desyncs
        // indptr.len() from nrows + 1.
        buf[..8].copy_from_slice(&9u64.to_ne_bytes());
        let mut reader = WireReader::new(&buf);
        assert!(elba::sparse::Csr::<f64>::wire_decode(&mut reader).is_err());
    }
}
