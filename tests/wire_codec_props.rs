//! Property tests for the transport wire codec: whatever `WireEncode`
//! produces, `WireDecode` must reconstruct exactly — for every payload
//! shape the runtime actually ships, from the empty vector through
//! multi-megabyte CSR panels — and the reader must consume the buffer
//! to the last byte (`finish` pins against silent over- or under-reads).

use elba::align::SgEdge;
use elba::comm::transport::wire::{WireError, WireReader};
use elba::comm::{Backend, CommMsg, Profile, Runner};
use elba::core::{EdgeRecord, WalkEdge};
use elba::graph::{Hop, Seed, SharedSeeds};
use elba::seq::AEntry;
use elba::sparse::Csr;
use proptest::prelude::*;

fn round_trip<T: CommMsg>(value: &T) -> T {
    let mut buf = Vec::new();
    value.wire_encode(&mut buf);
    // `nbytes` is the profile's *accounting* size (identical across
    // backends by construction); the frame encoding adds structural
    // prefixes on top of it, so it can only be at least as large.
    assert!(
        buf.len() >= value.nbytes() || value.nbytes() == 0,
        "encoding ({}) smaller than the booked nbytes ({})",
        buf.len(),
        value.nbytes()
    );
    let mut reader = WireReader::new(&buf);
    let decoded = T::wire_decode(&mut reader).expect("decode what we encoded");
    reader.finish().expect("decode must consume every byte");
    decoded
}

#[test]
fn degenerate_payloads_round_trip() {
    assert_eq!(round_trip(&Vec::<u8>::new()), Vec::<u8>::new());
    assert_eq!(round_trip(&vec![42u8]), vec![42u8]);
    assert_eq!(round_trip(&String::new()), String::new());
    assert_eq!(round_trip(&Option::<u64>::None), None);
    let empty: Csr<f64> = Csr::from_triples(0, 0, Vec::new(), |_, _| ());
    let back = round_trip(&empty);
    assert_eq!(back.nrows(), 0);
    assert_eq!(back.nnz(), 0);
}

#[test]
fn multi_mb_csr_panel_round_trips() {
    // ~4 MB of values plus indices/indptr — the size of a SUMMA stage
    // panel on the larger probes, exercising the bulk slice copies.
    let (nrows, ncols) = (4096usize, 2048usize);
    let triples: Vec<(u32, u32, f64)> = (0..nrows)
        .flat_map(|r| {
            (0..128u32).map(move |i| {
                let c = (r as u32 * 37 + i * 13) % ncols as u32;
                (r as u32, c, r as f64 + i as f64 * 0.5)
            })
        })
        .collect();
    let panel = Csr::from_triples(nrows, ncols, triples, |acc, v| *acc += v);
    assert!(panel.nbytes() > 4 << 20, "panel must be multi-MB");
    let back = round_trip(&panel);
    assert_eq!(back.nrows(), panel.nrows());
    assert_eq!(back.ncols(), panel.ncols());
    assert_eq!(back.indptr(), panel.indptr());
    assert_eq!(back.indices(), panel.indices());
    assert_eq!(back.values(), panel.values());
}

fn encoded<T: CommMsg>(value: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    value.wire_encode(&mut buf);
    buf
}

/// The decoder's cap on a length header (`wire::MAX_VEC_ELEMS`).
const MAX_VEC_ELEMS: u64 = 1 << 34;

/// Every rank's profile frame from one profiled run with nested phases,
/// point-to-point traffic, collectives, charges and transients. Each rank
/// hands back one charge, so its frame carries non-zero resident bytes.
fn profile_frames(ranks: usize, charges: Vec<u32>, transient: u32) -> Vec<(Profile, Vec<u8>)> {
    let (_, run) = Runner::new(Backend::InProcess)
        .ranks(ranks)
        .run_profiled(move |comm| {
            let _outer = comm.phase("outer");
            let held = comm.mem_charge(charges[0] as usize + comm.rank() + 1);
            {
                let _inner = comm.phase("outer:inner");
                for &bytes in &charges[1..] {
                    let _charge = comm.mem_charge(bytes as usize);
                    comm.record_mem_transient(transient as usize);
                }
                let peers = (0..comm.size()).map(|r| vec![r as u64; r + 1]).collect();
                let _ = comm.alltoallv(peers);
            }
            let _ = comm.bcast(0, (comm.rank() == 0).then(|| charges.clone()));
            let _ = comm.allreduce(comm.rank() as u64, |a, b| a + b);
            if comm.size() > 1 {
                if comm.rank() == 0 {
                    comm.send(1, 7, vec![1u8; 33]);
                } else if comm.rank() == 1 {
                    let _ = comm.recv::<Vec<u8>>(0, 7);
                }
            }
            held
        });
    run.rank_profiles()
        .iter()
        .map(|profile| {
            let mut frame = Vec::new();
            profile.wire_encode(&mut frame);
            (profile.clone(), frame)
        })
        .collect()
}

/// The extreme A entries: both strands at the first position and at the
/// last one a 31-bit field holds.
const EDGE_ENTRIES: [AEntry; 4] = [
    AEntry { pos: 0, fwd: true },
    AEntry { pos: 0, fwd: false },
    AEntry {
        pos: (1 << 31) - 1,
        fwd: true,
    },
    AEntry {
        pos: (1 << 31) - 1,
        fwd: false,
    },
];

#[test]
fn a_entries_travel_as_one_u32() {
    for entry in EDGE_ENTRIES {
        assert_eq!(round_trip(&entry), entry);
        // The model is the codec: an A entry is booked at exactly what
        // the frame carries, alone and in a vector.
        assert_eq!(entry.nbytes(), 4);
        assert_eq!(encoded(&entry).len(), entry.nbytes());
    }
    let entries = EDGE_ENTRIES.to_vec();
    assert_eq!(round_trip(&entries), entries);
    assert_eq!(encoded(&entries).len(), entries.nbytes());
    // Every strict prefix of an encoding is an error, never a value.
    let buf = encoded(&entries);
    for cut in 0..buf.len() {
        let mut reader = WireReader::new(&buf[..cut]);
        assert!(matches!(
            Vec::<AEntry>::wire_decode(&mut reader),
            Err(WireError::Truncated { .. })
        ));
    }
    let one = encoded(&EDGE_ENTRIES[3]);
    let mut reader = WireReader::new(&one[..3]);
    assert!(AEntry::wire_decode(&mut reader).is_err());
}

/// The extreme hops: every direction pair, the shortest and the longest
/// suffix.
const EDGE_HOPS: [Hop; 4] = [
    Hop {
        suffix: 0,
        src_rev: false,
        dst_rev: false,
    },
    Hop {
        suffix: 1,
        src_rev: false,
        dst_rev: true,
    },
    Hop {
        suffix: u32::MAX - 1,
        src_rev: true,
        dst_rev: false,
    },
    Hop {
        suffix: u32::MAX,
        src_rev: true,
        dst_rev: true,
    },
];

#[test]
fn hops_travel_as_five_bytes() {
    for hop in EDGE_HOPS {
        assert_eq!(round_trip(&hop), hop);
        // A `u32` and one flag byte, booked at exactly what the frame
        // carries, alone and in a vector.
        assert_eq!(hop.nbytes(), 5);
        assert_eq!(encoded(&hop).len(), hop.nbytes());
    }
    let hops = EDGE_HOPS.to_vec();
    assert_eq!(round_trip(&hops), hops);
    assert_eq!(hops.nbytes(), 8 + 5 * hops.len());
    assert_eq!(encoded(&hops).len(), hops.nbytes());
    // Every strict prefix of an encoding is an error, never a value.
    let buf = encoded(&hops);
    for cut in 0..buf.len() {
        let mut reader = WireReader::new(&buf[..cut]);
        assert!(matches!(
            Vec::<Hop>::wire_decode(&mut reader),
            Err(WireError::Truncated { .. })
        ));
    }
    for hop in EDGE_HOPS {
        let one = encoded(&hop);
        for cut in 0..one.len() {
            let mut reader = WireReader::new(&one[..cut]);
            assert!(matches!(
                Hop::wire_decode(&mut reader),
                Err(WireError::Truncated { .. })
            ));
        }
    }
    // The flag byte holds the direction pair, 0..=3; anything above is a
    // malformed frame.
    let mut one = encoded(&EDGE_HOPS[0]);
    for flags in 4..=255u8 {
        one[4] = flags;
        let mut reader = WireReader::new(&one);
        assert!(
            matches!(Hop::wire_decode(&mut reader), Err(WireError::Malformed(_))),
            "flag byte {flags} decoded"
        );
    }
}

/// The induced subgraph's edge records at the extremes: every strand
/// pair, and `pre` / `post` at 0 and at 2³¹ − 1, the largest read
/// coordinate (reads are shorter than 2³¹ bases).
fn extreme_edge_records() -> Vec<EdgeRecord> {
    let mut records = Vec::new();
    for (pre, post) in [
        (0, 0),
        ((1 << 31) - 1, 0),
        (0, (1 << 31) - 1),
        ((1 << 31) - 1, (1 << 31) - 1),
    ] {
        for (src_rev, dst_rev) in [(false, false), (false, true), (true, false), (true, true)] {
            let walk = WalkEdge {
                pre,
                post,
                src_rev,
                dst_rev,
            };
            records.push(EdgeRecord::new(pre ^ 5, u32::MAX - post, walk));
        }
    }
    records
}

#[test]
fn edge_records_travel_as_sixteen_bytes() {
    let records = extreme_edge_records();
    for record in &records {
        assert_eq!(round_trip(record), *record);
        assert_eq!(record.nbytes(), 16);
        assert_eq!(encoded(record).len(), record.nbytes());
        // The strand flags share words with `pre` and `post` and leave
        // them intact.
        let walk = round_trip(record).walk_edge();
        assert_eq!(
            EdgeRecord::new(walk.pre ^ 5, u32::MAX - walk.post, walk),
            *record
        );
    }
    let both = records.iter().find(|r| {
        let walk = r.walk_edge();
        walk.src_rev && walk.dst_rev && walk.pre == (1 << 31) - 1 && walk.post == (1 << 31) - 1
    });
    assert!(
        both.is_some(),
        "both flags set beside the largest coordinates"
    );
    assert_eq!(round_trip(&records), records);
    assert_eq!(records.nbytes(), 8 + 16 * records.len());
    assert_eq!(encoded(&records).len(), records.nbytes());
    // Every strict prefix of an encoding is an error, never a value.
    let buf = encoded(&records);
    for cut in 0..buf.len() {
        let mut reader = WireReader::new(&buf[..cut]);
        assert!(matches!(
            Vec::<EdgeRecord>::wire_decode(&mut reader),
            Err(WireError::Truncated { .. })
        ));
    }
    let one = encoded(&records[records.len() - 1]);
    for cut in 0..one.len() {
        let mut reader = WireReader::new(&one[..cut]);
        assert!(matches!(
            EdgeRecord::wire_decode(&mut reader),
            Err(WireError::Truncated { .. })
        ));
    }
}

/// Offsets of the bytes that read 0 in `off`'s encoding and 1 in `on`'s:
/// the `bool` fields in which the two values differ.
fn bool_offsets<T: CommMsg>(off: &T, on: &T) -> Vec<usize> {
    let (a, b) = (encoded(off), encoded(on));
    assert_eq!(a.len(), b.len());
    (0..a.len()).filter(|&i| a[i] == 0 && b[i] == 1).collect()
}

/// A value whose `bool` byte at `at` is anything but 0 or 1 is a
/// `Malformed` frame, never a value.
fn assert_bool_byte_checked<T: CommMsg>(value: &T, at: usize) {
    let mut buf = encoded(value);
    for byte in 2..=255u8 {
        buf[at] = byte;
        let mut reader = WireReader::new(&buf);
        assert!(
            matches!(T::wire_decode(&mut reader), Err(WireError::Malformed(_))),
            "byte {byte} at offset {at} decoded"
        );
    }
}

#[test]
fn bool_fields_decode_only_zero_or_one() {
    let edge = |src_rev, dst_rev| SgEdge {
        pre: 7,
        post: u32::MAX,
        src_rev,
        dst_rev,
        suffix: 120,
    };
    for (src_rev, dst_rev) in [(false, false), (false, true), (true, false), (true, true)] {
        let e = edge(src_rev, dst_rev);
        assert_eq!(round_trip(&e), e);
        assert_eq!(encoded(&e).len(), e.nbytes());
    }
    let edges = vec![edge(true, false), edge(false, true)];
    assert_eq!(round_trip(&edges), edges);
    assert_eq!(encoded(&edges).len(), edges.nbytes());
    for on in [edge(true, false), edge(false, true)] {
        let at = bool_offsets(&edge(false, false), &on);
        assert_eq!(at.len(), 1);
        assert_bool_byte_checked(&on, at[0]);
    }

    let seed = |pos_v, same_strand| Seed {
        pos_v,
        pos_h: 11,
        same_strand,
    };
    let pair = |a, b| {
        let mut seeds = SharedSeeds::single(a);
        seeds.merge(SharedSeeds::single(b));
        seeds
    };
    for same_strand in [false, true] {
        let s = seed(3, same_strand);
        assert_eq!(round_trip(&s), s);
        assert_eq!(encoded(&s).len(), s.nbytes());
        let two = pair(s, seed(900, !same_strand));
        assert_eq!(two.seeds().len(), 2);
        assert_eq!(round_trip(&two), two);
        assert_eq!(encoded(&two).len(), two.nbytes());
    }
    let at = bool_offsets(&seed(3, false), &seed(3, true));
    assert_eq!(at.len(), 1);
    assert_bool_byte_checked(&seed(3, true), at[0]);
    // Both retained seeds' strand bytes, one at a time.
    let off = pair(seed(3, false), seed(900, false));
    for on in [
        pair(seed(3, true), seed(900, false)),
        pair(seed(3, false), seed(900, true)),
    ] {
        let at = bool_offsets(&off, &on);
        assert_eq!(at.len(), 1);
        assert_bool_byte_checked(&on, at[0]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    #[test]
    fn a_matrix_blocks_round_trip(
        nrows in 1usize..48,
        ncols in 1usize..48,
        seeds in proptest::collection::vec(any::<u32>(), 0..200),
    ) {
        let triples: Vec<(u32, u32, AEntry)> = seeds
            .iter()
            .map(|&s| {
                let entry = AEntry { pos: s >> 1, fwd: s & 1 == 1 };
                (s % nrows as u32, (s / 7) % ncols as u32, entry)
            })
            .collect();
        let keep_first = |acc: &mut AEntry, v: AEntry| *acc = (*acc).min(v);
        let csr = Csr::from_triples(nrows, ncols, triples, keep_first);
        let back = round_trip(&csr);
        prop_assert_eq!(back.indptr(), csr.indptr());
        prop_assert_eq!(back.indices(), csr.indices());
        prop_assert_eq!(back.values(), csr.values());
        // Values are booked at their encoded size: the frame's overhead
        // over the model is the containers' structural headers alone,
        // the same as for a block of plain `u32` values.
        let words = Csr::from_triples(
            nrows,
            ncols,
            csr.iter().map(|(r, c, e)| (r, c, e.pos)).collect(),
            |_, _| {},
        );
        prop_assert_eq!(
            encoded(&csr).len() - csr.nbytes(),
            encoded(&words).len() - words.nbytes()
        );
    }

    /// The frame `DistMat::transpose` swaps between partner ranks:
    /// block-local `(col, row, edge)` triples of the string graph.
    #[test]
    fn transpose_frames_round_trip(
        seeds in proptest::collection::vec(any::<u32>(), 0..200),
        pick in any::<usize>(),
    ) {
        let edge = |s: u32, src_rev| SgEdge {
            pre: s,
            post: s.rotate_left(7),
            src_rev,
            dst_rev: s & 1 != 0,
            suffix: s >> 3,
        };
        let frame: Vec<(u32, u32, SgEdge)> = seeds
            .iter()
            .map(|&s| (s % 5000, s / 3, edge(s, s & 2 != 0)))
            .collect();
        prop_assert_eq!(&round_trip(&frame), &frame);
        prop_assert_eq!(frame.nbytes(), 8 + frame.len() * (8 + 16));
        let buf = encoded(&frame);
        for cut in [0, buf.len() / 2, buf.len() - 1] {
            let mut reader = WireReader::new(&buf[..cut]);
            prop_assert!(Vec::<(u32, u32, SgEdge)>::wire_decode(&mut reader).is_err());
        }
        // One entry's `src_rev` byte, 0 in one frame and 1 in the other.
        if !seeds.is_empty() {
            let k = pick % seeds.len();
            let (mut off, mut on) = (frame.clone(), frame);
            off[k].2.src_rev = false;
            on[k].2.src_rev = true;
            let at = bool_offsets(&off, &on);
            prop_assert_eq!(at.len(), 1);
            assert_bool_byte_checked(&on, at[0]);
        }
    }

    #[test]
    fn hop_matrix_blocks_round_trip(
        nrows in 1usize..48,
        ncols in 1usize..48,
        seeds in proptest::collection::vec(any::<u32>(), 0..200),
    ) {
        let triples: Vec<(u32, u32, Hop)> = seeds
            .iter()
            .map(|&s| {
                let hop = Hop { suffix: s, src_rev: s & 2 != 0, dst_rev: s & 1 != 0 };
                (s % nrows as u32, (s / 7) % ncols as u32, hop)
            })
            .collect();
        let csr = Csr::from_triples(nrows, ncols, triples, |_, _| {});
        let back = round_trip(&csr);
        prop_assert_eq!(back.indptr(), csr.indptr());
        prop_assert_eq!(back.indices(), csr.indices());
        prop_assert_eq!(back.values(), csr.values());
        // As for A entries: the frame's overhead over the model is the
        // containers' structural headers alone.
        let words = Csr::from_triples(
            nrows,
            ncols,
            csr.iter().map(|(r, c, h)| (r, c, h.suffix)).collect(),
            |_, _| {},
        );
        prop_assert_eq!(
            encoded(&csr).len() - csr.nbytes(),
            encoded(&words).len() - words.nbytes()
        );
        let buf = encoded(&csr);
        for cut in [0, buf.len() / 2, buf.len() - 1] {
            let mut reader = WireReader::new(&buf[..cut]);
            prop_assert!(Csr::<Hop>::wire_decode(&mut reader).is_err());
        }
    }

    #[test]
    fn byte_vectors_round_trip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        prop_assert_eq!(round_trip(&data), data);
    }

    #[test]
    fn scalar_vectors_round_trip(
        words in proptest::collection::vec(any::<u64>(), 0..512),
        floats in proptest::collection::vec(any::<u32>(), 0..512),
    ) {
        // Derive f64s from u32 bits so NaN never enters an equality check.
        let floats: Vec<f64> = floats.iter().map(|&b| f64::from(b) * 0.125).collect();
        prop_assert_eq!(round_trip(&words), words);
        prop_assert_eq!(round_trip(&floats), floats);
    }

    #[test]
    fn structured_payloads_round_trip(
        id in any::<u64>(),
        codes in proptest::collection::vec(any::<u8>(), 0..128),
        flag in any::<bool>(),
    ) {
        let text: String = codes.iter().map(|&b| char::from(b'a' + b % 26)).collect();
        let value = (id, text.clone(), codes.clone(), flag.then_some(id));
        prop_assert_eq!(round_trip(&value), value);
        let nested: Vec<(u64, String)> = (0..codes.len().min(16) as u64)
            .map(|i| (i.wrapping_mul(id), text.clone()))
            .collect();
        prop_assert_eq!(round_trip(&nested), nested);
    }

    #[test]
    fn csr_panels_round_trip(
        nrows in 1usize..64,
        ncols in 1usize..64,
        seeds in proptest::collection::vec(any::<u32>(), 0..256),
    ) {
        let triples: Vec<(u32, u32, f64)> = seeds
            .iter()
            .map(|&s| {
                (
                    s % nrows as u32,
                    (s / 7) % ncols as u32,
                    f64::from(s % 1009) * 0.25,
                )
            })
            .collect();
        let panel = Csr::from_triples(nrows, ncols, triples, |acc, v| *acc += v);
        let back = round_trip(&panel);
        prop_assert_eq!(back.indptr(), panel.indptr());
        prop_assert_eq!(back.indices(), panel.indices());
        prop_assert_eq!(back.values(), panel.values());
    }

    #[test]
    fn truncation_never_panics_and_always_errs(
        words in proptest::collection::vec(any::<u64>(), 1..64),
        cut_seed in any::<u32>(),
    ) {
        // Every strict prefix of a valid encoding must decode to a clean
        // error — truncated frames (a peer dying mid-write) must never
        // produce a value or a panic.
        let mut buf = Vec::new();
        words.wire_encode(&mut buf);
        let cut = cut_seed as usize % buf.len();
        let mut reader = WireReader::new(&buf[..cut]);
        prop_assert!(Vec::<u64>::wire_decode(&mut reader).is_err());
    }

    #[test]
    fn profile_frames_round_trip_and_reject_corruption(
        ranks in 1usize..=4,
        charges in proptest::collection::vec(0u32..1 << 20, 1..6),
        transient in 0u32..1 << 20,
        extra in any::<u8>(),
    ) {
        for (profile, frame) in profile_frames(ranks, charges.clone(), transient) {
            prop_assert!(profile.resident_bytes() > 0);
            prop_assert!(profile.phase("outer:inner").is_some_and(|p| p.mem_hw > 0));

            let mut reader = WireReader::new(&frame);
            let back = Profile::wire_decode(&mut reader).expect("decode what we encoded");
            prop_assert_eq!(reader.finish(), Ok(()));
            prop_assert_eq!(back.rank(), profile.rank());
            prop_assert_eq!(back.resident_bytes(), profile.resident_bytes());
            prop_assert_eq!(
                format!("{:?}", back.phases().collect::<Vec<_>>()),
                format!("{:?}", profile.phases().collect::<Vec<_>>())
            );

            for cut in 0..frame.len() {
                let mut reader = WireReader::new(&frame[..cut]);
                prop_assert!(Profile::wire_decode(&mut reader).is_err(), "cut at {}", cut);
            }

            let mut padded = frame.clone();
            padded.push(extra);
            let mut reader = WireReader::new(&padded);
            prop_assert!(Profile::wire_decode(&mut reader).is_ok());
            prop_assert_eq!(reader.finish(), Err(WireError::Trailing(1)));

            // The phase-count header follows the 8-byte rank.
            let mut oversized = frame.clone();
            oversized[8..16].copy_from_slice(&(MAX_VEC_ELEMS + 1).to_ne_bytes());
            let mut reader = WireReader::new(&oversized);
            prop_assert_eq!(
                Profile::wire_decode(&mut reader).map(|_| ()),
                Err(WireError::Malformed("length header"))
            );
        }
    }
}

/// A `Csr<f64>` frame written field by field — shape, form tag (0 dense,
/// 1 sparse), the row encoding, then the indices and values as `Vec`s —
/// so a test can forge what no encoder writes. A sparse frame's `rows`
/// are its `(row id, end offset)` pairs, flattened.
fn csr_frame(
    nrows: u64,
    ncols: u64,
    form: u8,
    rows: &[u32],
    indices: &[u32],
    values: &[f64],
) -> Vec<u8> {
    let mut buf = Vec::new();
    nrows.wire_encode(&mut buf);
    ncols.wire_encode(&mut buf);
    form.wire_encode(&mut buf);
    if form == 1 {
        (rows.len() as u64 / 2).wire_encode(&mut buf);
    }
    for row in rows {
        row.wire_encode(&mut buf);
    }
    indices.to_vec().wire_encode(&mut buf);
    values.to_vec().wire_encode(&mut buf);
    buf
}

fn decode_csr(frame: &[u8]) -> Result<Csr<f64>, WireError> {
    let mut reader = WireReader::new(frame);
    let csr = Csr::<f64>::wire_decode(&mut reader)?;
    reader.finish()?;
    Ok(csr)
}

/// Rows a block's wire frame lists in the sparse form.
fn nonempty_rows<T>(csr: &Csr<T>) -> usize {
    csr.indptr().windows(2).filter(|w| w[0] < w[1]).count()
}

/// The cost model of a frame's rows: the cheaper of `4·(nrows + 1)`
/// dense offsets and `8·nzr` sparse pairs, and whether it is sparse.
fn row_model<T>(csr: &Csr<T>) -> (bool, usize) {
    let (dense, sparse) = (4 * (csr.nrows() + 1), 8 * nonempty_rows(csr));
    (sparse < dense, sparse.min(dense))
}

/// `csr`'s frame against the byte model and the decoder: `nbytes` is
/// shape + tag + rows + indices + values, the frame adds only the
/// containers' length headers (indices, values, and the sparse form's
/// row list), the tag byte names the form, the block comes back equal,
/// and every strict prefix is an error.
fn check_csr_frame<T: CommMsg + Clone + PartialEq + std::fmt::Debug>(csr: &Csr<T>) {
    let (sparse, rows) = row_model(csr);
    let values: usize = csr.values().iter().map(CommMsg::nbytes).sum();
    assert_eq!(csr.nbytes(), 17 + rows + 4 * csr.nnz() + values);
    let buf = encoded(csr);
    assert_eq!(buf.len() - csr.nbytes(), if sparse { 24 } else { 16 });
    assert_eq!(buf[16], u8::from(sparse), "form tag");
    let back = round_trip(csr);
    assert_eq!(&back, csr);
    for cut in 0..buf.len() {
        let mut reader = WireReader::new(&buf[..cut]);
        assert!(Csr::<T>::wire_decode(&mut reader).is_err(), "cut at {cut}");
    }
}

/// A `rows × 4` block whose non-empty rows are `filled` (each one entry
/// per column in `0..2`).
fn block_with_rows(nrows: usize, filled: &[u32]) -> Csr<f64> {
    let triples = filled
        .iter()
        .flat_map(|&r| [(r, 0, f64::from(r)), (r, 2, 0.5)])
        .collect();
    Csr::from_triples(nrows, 4, triples, |_, _| unreachable!())
}

#[test]
fn csr_frames_round_trip_in_both_row_forms_at_every_boundary() {
    // No rows, and no entries.
    check_csr_frame(&Csr::<f64>::empty(0, 0));
    check_csr_frame(&Csr::<f64>::empty(0, 5));
    check_csr_frame(&Csr::<f64>::empty(5, 5));
    check_csr_frame(&block_with_rows(1, &[0]));
    check_csr_frame(&block_with_rows(6, &[0, 1, 2, 3, 4, 5]));
    // 9 rows: 40 B of dense offsets, so 4 listed rows (32 B) travel
    // sparse and 5 (40 B, a tie) or 6 travel dense.
    for (nzr, sparse) in [(4, true), (5, false), (6, false)] {
        let rows: Vec<u32> = (0..nzr).map(|k| 9 - nzr + k).collect();
        let block = block_with_rows(9, &rows);
        assert_eq!(row_model(&block), (sparse, 40.min(8 * nzr as usize)));
        check_csr_frame(&block);
    }
    // 10 rows: 44 B dense, so the threshold falls between 5 and 6.
    for (nzr, sparse) in [(5, true), (6, false)] {
        let rows: Vec<u32> = (10 - nzr..10).collect();
        let block = block_with_rows(10, &rows);
        assert_eq!(row_model(&block).0, sparse);
        check_csr_frame(&block);
    }
    // The writer above is the codec's layout, byte for byte.
    let block = block_with_rows(9, &[2, 7]);
    assert_eq!(
        encoded(&block),
        csr_frame(9, 4, 1, &[2, 2, 7, 4], block.indices(), block.values())
    );
    let block = block_with_rows(2, &[0, 1]);
    assert_eq!(
        encoded(&block),
        csr_frame(2, 4, 0, &[0, 2, 4], block.indices(), block.values())
    );
}

#[test]
fn a_hypersparse_block_books_its_entries_not_its_rows() {
    let triples = vec![(3, 9, 1.0), (500_000, 0, 2.0), (999_999, 999_999, 3.0)];
    let block = Csr::from_triples(1_000_000, 1_000_000, triples, |_, _| unreachable!());
    // 17 B shape and tag + 3 × 8 B row pairs + 3 × (4 B index + 8 B value).
    assert_eq!(block.nbytes(), 77);
    assert!(block.nbytes() < 100);
    check_csr_frame(&block);
}

/// Frames that decoded `Ok` before the decoder checked the structure,
/// and panicked later in an accessor or a kernel.
#[test]
fn corrupt_csr_frames_are_malformed_not_a_later_panic() {
    let malformed = |frame: &[u8]| matches!(decode_csr(frame), Err(WireError::Malformed(_)));
    // A dense 3 × 3 frame of three entries.
    let dense = |offsets: &[u32], indices: &[u32]| csr_frame(3, 3, 0, offsets, indices, &[1.0; 3]);
    assert_eq!(
        decode_csr(&dense(&[0, 1, 1, 3], &[2, 0, 1])).map(|m| m.nnz()),
        Ok(3)
    );
    // Offsets that fall: `row(1)` would slice 3..1.
    assert!(malformed(&dense(&[0, 3, 1, 3], &[0, 1, 2])));
    // Column 7 in a 2-column block: a kernel's SPA would index past it.
    assert!(malformed(&csr_frame(1, 2, 0, &[0, 1], &[7], &[1.0])));
    // Offsets that do not start at 0 or do not end at `nnz`.
    assert!(malformed(&dense(&[1, 1, 1, 3], &[2, 0, 1])));
    assert!(malformed(&dense(&[0, 1, 1, 2], &[2, 0, 1])));
    // Columns out of order, or repeated, within a row.
    assert!(malformed(&dense(&[0, 1, 1, 3], &[2, 1, 0])));
    assert!(malformed(&dense(&[0, 1, 1, 3], &[2, 1, 1])));
    // Sparse row ids out of order, repeated, or outside the shape.
    let sparse = |rows: &[u32]| csr_frame(9, 3, 1, rows, &[0, 1], &[1.0, 2.0]);
    assert_eq!(
        decode_csr(&sparse(&[2, 1, 5, 2])).map(|m| m.row_nnz(5)),
        Ok(1)
    );
    assert!(malformed(&sparse(&[5, 1, 2, 2])));
    assert!(malformed(&sparse(&[2, 1, 2, 2])));
    assert!(malformed(&sparse(&[2, 1, 9, 2])));
    // Sparse end offsets that fall or miss `nnz`.
    assert!(malformed(&sparse(&[2, 2, 5, 1])));
    assert!(malformed(&sparse(&[2, 1, 5, 1])));
    // More listed rows than the shape has, an unknown form tag, and
    // shapes whose `nrows + 1` overflows or that no `u32` id addresses.
    let entries = |rows| csr_frame(1, 3, 1, rows, &[0, 1], &[1.0, 2.0]);
    assert!(malformed(&entries(&[0, 1, 0, 2])));
    assert!(malformed(&csr_frame(
        3,
        3,
        2,
        &[0, 1, 1, 3],
        &[2, 0, 1],
        &[1.0; 3]
    )));
    for dims in [(u64::MAX, 3), (3, u64::MAX), ((1 << 32) + 1, 3)] {
        assert!(malformed(&csr_frame(dims.0, dims.1, 1, &[], &[], &[])));
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    /// Both row forms, for each value type a block travels with: the
    /// shapes run from a few rows to hypersparse, so some blocks list
    /// their rows and some ship every offset.
    #[test]
    fn csr_frames_in_both_forms_book_their_headers_alone(
        nrows in 0usize..400,
        ncols in 1usize..48,
        seeds in proptest::collection::vec(any::<u32>(), 0..120),
    ) {
        let coords: Vec<(u32, u32, u32)> = if nrows == 0 {
            Vec::new()
        } else {
            seeds
                .iter()
                .map(|&s| (s % nrows as u32, (s / 7) % ncols as u32, s))
                .collect()
        };
        let block = |value: &dyn Fn(u32) -> f64| {
            let triples = coords.iter().map(|&(r, c, s)| (r, c, value(s))).collect();
            Csr::from_triples(nrows, ncols, triples, |_, _| {})
        };
        check_csr_frame(&block(&|s| f64::from(s) * 0.5));
        let entries = coords
            .iter()
            .map(|&(r, c, s)| (r, c, AEntry { pos: s >> 1, fwd: s & 1 == 1 }))
            .collect();
        check_csr_frame(&Csr::from_triples(nrows, ncols, entries, |_, _| {}));
        let hops = coords
            .iter()
            .map(|&(r, c, s)| (r, c, Hop { suffix: s, src_rev: s & 2 != 0, dst_rev: s & 1 != 0 }))
            .collect();
        check_csr_frame(&Csr::from_triples(nrows, ncols, hops, |_, _| {}));
    }
}
