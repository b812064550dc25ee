//! Property tests for the transport wire codec: whatever `WireEncode`
//! produces, `WireDecode` must reconstruct exactly — for every payload
//! shape the runtime actually ships, from the empty vector through
//! multi-megabyte CSR panels — and the reader must consume the buffer
//! to the last byte (`finish` pins against silent over- or under-reads).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use elba::align::SgEdge;
use elba::comm::transport::wire::{write_varint, WireError, WireReader};
use elba::comm::{Backend, CommMsg, Profile, Runner};
use elba::core::WalkEdge;
use elba::graph::{Hop, Seed, SharedSeeds};
use elba::seq::{AEntry, CountRun, ReadHeaders};
use elba::sparse::{Ascending, AtVertices, Csr, PerVertex, Plain, RoutedTriples, U32Run};
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

/// The A entries at each varint boundary of `pos << 1 | fwd` — one byte
/// through position 63, two from 64 — and at the last position a read
/// coordinate takes (reads are shorter than 2³¹ bases), on both strands.
const EDGE_ENTRIES: [AEntry; 8] = [
    AEntry { pos: 0, fwd: true },
    AEntry { pos: 0, fwd: false },
    AEntry { pos: 63, fwd: true },
    AEntry {
        pos: 63,
        fwd: false,
    },
    AEntry { pos: 64, fwd: true },
    AEntry {
        pos: 64,
        fwd: false,
    },
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
fn a_entries_travel_as_one_varint() {
    for (entry, bytes) in EDGE_ENTRIES.into_iter().zip([1, 1, 1, 1, 2, 2, 5, 5]) {
        assert_eq!(round_trip(&entry), entry);
        // The model is the codec: an A entry is booked at exactly what
        // the frame carries, alone and in a vector.
        assert_eq!(entry.nbytes(), bytes, "{entry:?}");
        let frame = encoded(&entry);
        assert_eq!(
            frame,
            varints(&[u64::from(entry.pos) << 1 | u64::from(entry.fwd)])
        );
        assert_prefixes_truncated::<AEntry>(&frame);
    }
    let entries = EDGE_ENTRIES.to_vec();
    assert_eq!(round_trip(&entries), entries);
    let frame = encoded(&entries);
    assert_eq!(frame.len(), entries.nbytes());
    assert_eq!(entries.nbytes(), 8 + 4 + 4 + 10);
    assert_prefixes_truncated::<Vec<AEntry>>(&frame);
    // A position of 2³¹ or more is no read coordinate, and a varint no
    // encoder writes is no entry.
    for code in [1 << 32, (1 << 32) | 1, u64::MAX] {
        assert_eq!(
            decode_exact::<AEntry>(&varints(&[code])),
            Err(WireError::Malformed("a entry position"))
        );
    }
    for bad in BAD_VARINTS {
        assert_eq!(
            decode_exact::<AEntry>(bad),
            Err(WireError::Malformed("varint"))
        );
    }
    fuzz_frame::<Vec<AEntry>>(&frame, 0, |decoded, _| {
        decoded.iter().all(|entry| entry.pos < 1 << 31)
    });
}

/// Every direction pair of a hop with `suffix`.
fn hops_with(suffix: u32) -> [Hop; 4] {
    [(false, false), (false, true), (true, false), (true, true)].map(|(src_rev, dst_rev)| Hop {
        suffix,
        src_rev,
        dst_rev,
    })
}

/// Every strict prefix of `frame` decodes to `Truncated`, never a value.
fn assert_prefixes_truncated<T: CommMsg>(frame: &[u8]) {
    for cut in 0..frame.len() {
        assert!(
            matches!(
                decode_exact::<T>(&frame[..cut]),
                Err(WireError::Truncated { .. })
            ),
            "a {cut}-byte prefix of {frame:?}"
        );
    }
}

/// `codes` as varints, in order: the layout of every frame below.
fn varints(codes: &[u64]) -> Vec<u8> {
    let mut buf = Vec::new();
    for &code in codes {
        write_varint(&mut buf, code);
    }
    buf
}

/// A non-minimal varint (a zero top group after a continuation), an
/// overflowing one and an over-long one: none is a value.
const BAD_VARINTS: [&[u8]; 3] = [
    &[0x80, 0x00],
    &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02],
    &[0x80; 11],
];

#[test]
fn hops_travel_as_one_varint() {
    // `suffix << 2 | dir`: one byte below a suffix of 32, two below
    // 4 096, five for the largest.
    for (suffix, bytes) in [
        (0, 1),
        (31, 1),
        (127, 2),
        (128, 2),
        (4095, 2),
        (4096, 3),
        (u32::MAX, 5),
    ] {
        for hop in hops_with(suffix) {
            assert_eq!(round_trip(&hop), hop);
            assert_eq!(hop.nbytes(), bytes, "{hop:?}");
            let frame = encoded(&hop);
            assert_eq!(frame, varints(&[u64::from(suffix) << 2 | hop.dir() as u64]));
            assert_prefixes_truncated::<Hop>(&frame);
        }
    }
    let hops: Vec<Hop> = [0, 127, 128, u32::MAX]
        .into_iter()
        .flat_map(hops_with)
        .collect();
    assert_eq!(round_trip(&hops), hops);
    assert_eq!(hops.nbytes(), 8 + 4 * (1 + 2 + 2 + 5));
    assert_eq!(encoded(&hops).len(), hops.nbytes());
    assert_prefixes_truncated::<Vec<Hop>>(&encoded(&hops));
    // A suffix past `u32::MAX` and a varint no encoder writes are
    // malformed frames.
    let past = u64::from(u32::MAX) + 1;
    for code in [past << 2, past << 2 | 3, u64::MAX] {
        assert_eq!(
            decode_exact::<Hop>(&varints(&[code])),
            Err(WireError::Malformed("hop suffix"))
        );
    }
    for bad in BAD_VARINTS {
        assert_eq!(
            decode_exact::<Hop>(bad),
            Err(WireError::Malformed("varint"))
        );
    }
}

/// The induced subgraph's edges at the extremes: every strand pair, and
/// `pre` / `post` at 0 and at 2³¹ − 1, the largest read coordinate
/// (reads are shorter than 2³¹ bases), on the rows and columns of
/// [`sorted_a_triples`].
fn extreme_walk_triples() -> Vec<(u32, u32, WalkEdge)> {
    let mut walks = Vec::new();
    for (pre, post) in [
        (0, 0),
        ((1 << 31) - 1, 0),
        (0, (1 << 31) - 1),
        ((1 << 31) - 1, (1 << 31) - 1),
    ] {
        for (src_rev, dst_rev) in [(false, false), (false, true), (true, false), (true, true)] {
            walks.push(WalkEdge {
                pre,
                post,
                src_rev,
                dst_rev,
            });
        }
    }
    let cells = sorted_a_triples().into_iter().cycle();
    cells
        .zip(walks)
        .map(|((row, col, _), walk)| (row, col, walk))
        .collect()
}

#[test]
fn walk_edges_travel_as_two_varints_in_routed_runs() {
    let triples = extreme_walk_triples();
    for &(_, _, walk) in &triples {
        assert_eq!(round_trip(&walk), walk);
        let code = |coord: u32, rev: bool| u64::from(coord) << 1 | u64::from(rev);
        let frame = encoded(&walk);
        assert_eq!(
            frame,
            varints(&[code(walk.pre, walk.src_rev), code(walk.post, walk.dst_rev)])
        );
        assert_eq!(frame.len(), walk.nbytes());
        assert_prefixes_truncated::<WalkEdge>(&frame);
    }
    // Both coordinates at 0 take a byte each; at 2³¹ − 1, five.
    let walk = |coord| WalkEdge {
        pre: coord,
        post: coord,
        src_rev: true,
        dst_rev: true,
    };
    assert_eq!(walk(0).nbytes(), 2);
    assert_eq!(walk(63).nbytes(), 2);
    assert_eq!(walk(64).nbytes(), 4);
    assert_eq!(walk((1 << 31) - 1).nbytes(), 10);
    // A coordinate of 2³¹ or more, and a varint no encoder writes, are
    // malformed frames.
    for code in [1 << 32, (1 << 32) | 1, u64::MAX] {
        let bad = [varints(&[code, 0]), varints(&[0, code])];
        for frame in bad {
            assert_eq!(
                decode_exact::<WalkEdge>(&frame),
                Err(WireError::Malformed("walk edge coordinate"))
            );
        }
    }
    for bad in BAD_VARINTS {
        let frame = [&[0][..], bad].concat();
        assert_eq!(
            decode_exact::<WalkEdge>(&frame),
            Err(WireError::Malformed("varint"))
        );
    }
    // A destination's edges leave in row-major order: the run form, never
    // larger than the flat one, booked at its coded length.
    let run_form = |buf: &[u8]| u64::from_ne_bytes(buf[..8].try_into().expect("header")) >> 63 == 1;
    let buf = RoutedTriples::new(triples.clone());
    let frame = encoded(&buf);
    assert!(run_form(&frame));
    assert_eq!(frame.len(), buf.nbytes());
    assert!(buf.nbytes() < triples.nbytes());
    assert_eq!(round_trip(&buf).into_triples(), triples);
    fuzz_frame::<RoutedTriples<WalkEdge>>(&frame, 0, |decoded, flipped| {
        let rows_hold = decoded
            .triples()
            .windows(2)
            .all(|w| w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 <= w[1].1));
        let coords_hold = decoded
            .triples()
            .iter()
            .all(|(_, _, e)| e.pre < 1 << 31 && e.post < 1 << 31);
        coords_hold && (!run_form(flipped) || rows_hold)
    });
}

/// Read headers at the extremes: id gaps of 0 and `u32::MAX` (a repeated
/// id, and one id back), the largest id, lengths 0 and 2³¹ − 1.
fn extreme_read_headers() -> ReadHeaders {
    let mut headers = ReadHeaders::default();
    for header in [
        (7, 120),
        (7, 0),
        (6, (1 << 31) - 1),
        (7, 1),
        (u32::MAX - 1, 128),
        (0, 127),
    ] {
        headers.push(header);
    }
    headers
}

#[test]
fn read_headers_travel_as_id_gaps_and_lengths() {
    let headers = extreme_read_headers();
    let frame = encoded(&headers);
    assert_eq!(frame.len(), headers.nbytes());
    assert_eq!(
        frame,
        varints(&[
            6,
            7,
            120,
            0,
            0,
            u64::from(u32::MAX),
            (1 << 31) - 1,
            1,
            1,
            u64::from(u32::MAX - 8),
            128,
            2,
            127,
        ])
    );
    assert_eq!(round_trip(&headers), headers);
    assert_prefixes_truncated::<ReadHeaders>(&frame);
    // A block-distributed store's run of ids: two bytes per read of up
    // to 127 bases, where the `(u32, u32)` pair took eight.
    let mut run = ReadHeaders::default();
    (100..200).for_each(|id| run.push((id, 120)));
    assert_eq!(run.nbytes(), 1 + 1 + 99 + 100);
    assert_eq!(ReadHeaders::default().nbytes(), 1);
    assert_eq!(round_trip(&ReadHeaders::default()), ReadHeaders::default());
    // A gap past `u32::MAX`, a length of 2³¹ or more and a varint no
    // encoder writes are malformed frames.
    for gap in [1 << 32, u64::MAX] {
        assert_eq!(
            decode_exact::<ReadHeaders>(&varints(&[1, gap, 0])),
            Err(WireError::Malformed("read id gap"))
        );
    }
    for len in [1 << 31, u64::from(u32::MAX), u64::MAX] {
        assert_eq!(
            decode_exact::<ReadHeaders>(&varints(&[1, 0, len])),
            Err(WireError::Malformed("read length"))
        );
    }
    for bad in BAD_VARINTS {
        assert_eq!(
            decode_exact::<ReadHeaders>(bad),
            Err(WireError::Malformed("varint"))
        );
        let frame = [&[1, 5][..], bad].concat();
        assert_eq!(
            decode_exact::<ReadHeaders>(&frame),
            Err(WireError::Malformed("varint"))
        );
    }
    fuzz_frame::<ReadHeaders>(&frame, 0, |decoded, _| {
        decoded.headers().iter().all(|&(_, len)| len < 1 << 31)
    });
}

#[test]
fn degrees_travel_as_varints() {
    let degrees = U32Run::new(Plain, vec![0, 1, 2, 127, 128, 70_000, u32::MAX]);
    let frame = encoded(&degrees);
    assert_eq!(frame.len(), degrees.nbytes());
    assert_eq!(
        frame,
        varints(&[7, 0, 1, 2, 127, 128, 70_000, u64::from(u32::MAX)])
    );
    assert_eq!(degrees.nbytes(), 1 + 1 + 1 + 1 + 1 + 2 + 3 + 5);
    assert_eq!(round_trip(&degrees), degrees);
    assert_prefixes_truncated::<U32Run>(&frame);
    assert_eq!(U32Run::new(Plain, Vec::new()).nbytes(), 1);
    // A degree past `u32::MAX` and a varint no encoder writes are
    // malformed frames.
    for degree in [1 << 32, u64::MAX] {
        assert_eq!(
            decode_exact::<U32Run>(&varints(&[2, 0, degree])),
            Err(WireError::Malformed("run value"))
        );
    }
    for bad in BAD_VARINTS {
        assert_eq!(
            decode_exact::<U32Run>(bad),
            Err(WireError::Malformed("varint"))
        );
        let frame = [&[1][..], bad].concat();
        assert_eq!(
            decode_exact::<U32Run>(&frame),
            Err(WireError::Malformed("varint"))
        );
    }
    fuzz_frame::<U32Run>(&frame, 0, |_, _| true);
}

/// Whether a decoded `(f, gp)` run keeps `gp ≤ f ≤ v` for every vertex.
fn pairs_descend(run: &U32Run<PerVertex<2>>, first: u64) -> bool {
    let pairs = run.values().chunks_exact(2);
    (first..)
        .zip(pairs)
        .all(|(v, pair)| pair[1] <= pair[0] && u64::from(pair[0]) <= v)
}

#[test]
fn vertex_runs_travel_as_distances_below_their_vertex() {
    // FastSV's `(f, gp)` at vertices 0, 1, 2, 3 and u32::MAX − 1,
    // u32::MAX: a root, a vertex whose parent is a root, and distances
    // of every varint width up to the whole id range.
    let low = U32Run::new(PerVertex::<2> { first: 0 }, vec![0, 0, 0, 0, 1, 0, 3, 3]);
    assert_eq!(encoded(&low), varints(&[8, 0, 0, 0, 1, 0, 1, 1, 0, 0]));
    let high = U32Run::new(
        PerVertex::<2> {
            first: u32::MAX - 1,
        },
        vec![u32::MAX - 1, 0, 127, 0],
    );
    assert_eq!(
        encoded(&high),
        varints(&[
            4,
            u64::from(u32::MAX) - 1,
            0,
            u64::from(u32::MAX) - 1,
            u64::from(u32::MAX) - 127,
            127
        ])
    );
    for run in [&low, &high] {
        let frame = encoded(run);
        assert_eq!(frame.len(), run.nbytes());
        assert_eq!(round_trip(run), *run);
        assert_prefixes_truncated::<U32Run<PerVertex<2>>>(&frame);
    }
    // A gap that puts `f` above `v`, or `gp` above `f`, is malformed,
    // never a wrapped id; so is a vertex past u32::MAX, and half a pair.
    for codes in [
        &[2, 5, 6, 0][..],
        &[2, 5, 0, 6],
        &[2, 5, 5, 1],
        &[4, u64::from(u32::MAX), 0, 0, 0, 0],
    ] {
        assert_eq!(
            decode_exact::<U32Run<PerVertex<2>>>(&varints(codes)),
            Err(WireError::Malformed("run value")),
            "{codes:?}"
        );
    }
    assert_eq!(
        decode_exact::<U32Run<PerVertex<2>>>(&varints(&[1, 0, 0])),
        Err(WireError::Malformed("run length"))
    );
    assert_eq!(
        decode_exact::<U32Run<PerVertex<2>>>(&varints(&[0, 1 << 32])),
        Err(WireError::Malformed("run vertex"))
    );
    // A decoded run's first vertex is its frame's second varint.
    fuzz_frame::<U32Run<PerVertex<2>>>(&encoded(&low), 0, |run, flipped| {
        let mut header = WireReader::new(flipped);
        let _count = header.read_varint();
        header
            .read_varint()
            .is_ok_and(|first| pairs_descend(run, first))
    });
    // A component label, one per vertex: `v − label`.
    let labels = U32Run::new(PerVertex::<1> { first: 100 }, vec![100, 0, 101]);
    assert_eq!(encoded(&labels), varints(&[3, 100, 0, 101, 1]));
    assert_eq!(labels.nbytes(), 1 + 1 + 1 + 1 + 1);
    assert_eq!(
        decode_exact::<U32Run<PerVertex<1>>>(&varints(&[1, 100, 101])),
        Err(WireError::Malformed("run value"))
    );
}

#[test]
fn label_updates_travel_as_vertex_gaps_and_distances() {
    // `(vertex, label)`: vertices ascending from 0 to u32::MAX, labels
    // from just below their vertex to 0.
    let updates = U32Run::new(AtVertices, vec![1, 0, 2, 1, 200, 0, u32::MAX, u32::MAX - 1]);
    let frame = encoded(&updates);
    assert_eq!(
        frame,
        varints(&[8, 1, 0, 0, 0, 197, 199, u64::from(u32::MAX) - 201, 0])
    );
    assert_eq!(frame.len(), updates.nbytes());
    assert_eq!(round_trip(&updates), updates);
    assert_eq!(U32Run::new(AtVertices, Vec::new()).nbytes(), 1);
    assert_prefixes_truncated::<U32Run<AtVertices>>(&frame);
    // A label at or above its vertex, a vertex past u32::MAX and half a
    // pair are malformed.
    for codes in [
        &[2, 5, 5][..],
        &[2, 5, 6],
        &[2, 1 << 32, 0],
        &[4, 7, 0, u64::from(u32::MAX), 0],
    ] {
        assert_eq!(
            decode_exact::<U32Run<AtVertices>>(&varints(codes)),
            Err(WireError::Malformed("run value")),
            "{codes:?}"
        );
    }
    assert_eq!(
        decode_exact::<U32Run<AtVertices>>(&varints(&[3, 1, 0, 0])),
        Err(WireError::Malformed("run length"))
    );
    fuzz_frame::<U32Run<AtVertices>>(&frame, 0, |run, _| {
        let pairs: Vec<&[u32]> = run.values().chunks_exact(2).collect();
        pairs.windows(2).all(|w| w[0][0] < w[1][0]) && pairs.iter().all(|p| p[1] < p[0])
    });
}

#[test]
fn read_requests_travel_as_ascending_id_gaps() {
    // The ids a rank asks an owner for: the first as itself, each later
    // one as its gap to the one before, from gap 0 (the first id 0) to
    // gap u32::MAX.
    let ids = U32Run::new(Ascending, vec![0, 1, 128, u32::MAX]);
    let frame = encoded(&ids);
    assert_eq!(frame, varints(&[4, 0, 1, 127, u64::from(u32::MAX) - 128]));
    assert_eq!(frame.len(), ids.nbytes());
    assert_eq!(ids.nbytes(), 1 + 1 + 1 + 1 + 5);
    assert_eq!(round_trip(&ids), ids);
    for values in [vec![], vec![u32::MAX], vec![0, u32::MAX], vec![7, 8, 9]] {
        let run = U32Run::new(Ascending, values);
        assert_eq!(encoded(&run).len(), run.nbytes(), "{:?}", run.values());
        assert_eq!(round_trip(&run), run);
    }
    assert_prefixes_truncated::<U32Run<Ascending>>(&frame);
    // A repeated id (gap 0 after the first) and an id past u32::MAX do
    // not ascend within the ids: malformed, never a wrapped id.
    for codes in [
        &[2, 5, 0][..],
        &[3, 5, 1, 0],
        &[1, 1 << 32],
        &[2, u64::from(u32::MAX), 1],
        &[2, 1, u64::from(u32::MAX)],
    ] {
        assert_eq!(
            decode_exact::<U32Run<Ascending>>(&varints(codes)),
            Err(WireError::Malformed("run value")),
            "{codes:?}"
        );
    }
    fuzz_frame::<U32Run<Ascending>>(&frame, 0, |run, _| {
        run.values().windows(2).all(|w| w[0] < w[1])
    });
}

/// `n` mask entries, every third set.
fn mask(n: usize) -> Vec<bool> {
    (0..n).map(|i| i % 3 == 0).collect()
}

#[test]
fn bool_vectors_travel_as_bits() {
    for n in [0usize, 1, 7, 8, 9, 65] {
        let bits = mask(n);
        let frame = encoded(&bits);
        assert_eq!(bits.nbytes(), 8 + n.div_ceil(8), "{n} bools");
        assert_eq!(frame.len(), bits.nbytes());
        assert_eq!(round_trip(&bits), bits);
        assert_prefixes_truncated::<Vec<bool>>(&frame);
        // Bits fill each byte from the lowest up.
        for (i, &bit) in bits.iter().enumerate() {
            assert_eq!(frame[8 + i / 8] >> (i % 8) & 1 == 1, bit);
        }
        // A set padding bit is malformed, never a value.
        if n % 8 != 0 {
            for pad in n % 8..8 {
                let mut flipped = frame.clone();
                *flipped.last_mut().expect("a packed byte") |= 1 << pad;
                assert_eq!(
                    decode_exact::<Vec<bool>>(&flipped),
                    Err(WireError::Malformed("bool padding"))
                );
            }
        }
        // A length header may claim up to 8 bools per remaining byte:
        // the decode reserves no more than that.
        fuzz_frame::<Vec<bool>>(&frame, 0, |decoded, flipped| {
            decoded.len() <= 8 * (flipped.len() - 8)
        });
    }
    // A claimed length whose bits the frame does not carry is truncated
    // before anything is reserved.
    let mut frame = encoded(&mask(9));
    frame[..8].copy_from_slice(&(MAX_VEC_ELEMS).to_ne_bytes());
    let (decoded, largest) = largest_allocation(|| decode_exact::<Vec<bool>>(&frame));
    assert!(matches!(decoded, Err(WireError::Truncated { .. })));
    assert!(largest <= 8 * frame.len(), "reserved {largest} B");
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

/// The largest allocation the current thread asked for while
/// [`largest_allocation`] watched it, and the size above which such a
/// request fails instead of reaching the system: a decoder that trusted
/// a corrupt count aborts the test rather than exhaust the machine.
struct WatchedAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    static REFUSE_ABOVE: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn note_allocation(size: usize) -> bool {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
    REFUSE_ABOVE
        .try_with(Cell::get)
        .map_or(true, |cap| size <= cap)
}

unsafe impl GlobalAlloc for WatchedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !note_allocation(layout.size()) {
            return std::ptr::null_mut();
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if !note_allocation(layout.size()) {
            return std::ptr::null_mut();
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if !note_allocation(new_size) {
            return std::ptr::null_mut();
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static WATCHED: WatchedAlloc = WatchedAlloc;

/// Run `f` and return the largest single allocation it made.
fn largest_allocation<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.with(|largest| largest.set(0));
    REFUSE_ABOVE.with(|cap| cap.set(64 << 20));
    let out = f();
    REFUSE_ABOVE.with(|cap| cap.set(usize::MAX));
    (out, LARGEST.with(Cell::get))
}

/// Decode a whole frame: a value that leaves bytes behind is an error.
fn decode_exact<T: CommMsg>(frame: &[u8]) -> Result<T, WireError> {
    let mut reader = WireReader::new(frame);
    let value = T::wire_decode(&mut reader)?;
    reader.finish()?;
    Ok(value)
}

/// The wire fuzz of one encoded instance: every strict prefix is an
/// error, one byte more is `Trailing(1)`, and every single-byte change
/// either fails or decodes to a value `valid` accepts — without a panic,
/// and without an allocation larger than `16·len` bytes (what the frame's
/// bytes can back at up to 16 B of element per byte) plus `backed`, the
/// in-memory form the frame's shape stands for.
fn fuzz_frame<T: CommMsg>(frame: &[u8], backed: usize, valid: impl Fn(&T, &[u8]) -> bool) {
    let bound = 16 * frame.len() + backed;
    for cut in 0..frame.len() {
        let (decoded, largest) = largest_allocation(|| decode_exact::<T>(&frame[..cut]));
        assert!(decoded.is_err(), "a {cut}-byte prefix decoded");
        assert!(
            largest <= bound,
            "a {cut}-byte prefix allocated {largest} B"
        );
    }
    let mut padded = frame.to_vec();
    padded.push(0);
    let mut reader = WireReader::new(&padded);
    assert!(T::wire_decode(&mut reader).is_ok());
    assert_eq!(reader.finish(), Err(WireError::Trailing(1)));
    let mut flipped = frame.to_vec();
    for at in 0..frame.len() {
        for byte in 0..=255u8 {
            if byte == frame[at] {
                continue;
            }
            flipped[at] = byte;
            let (decoded, largest) = largest_allocation(|| decode_exact::<T>(&flipped));
            assert!(
                largest <= bound,
                "byte {byte} at {at} allocated {largest} B (bound {bound})"
            );
            if let Ok(value) = decoded {
                assert!(
                    valid(&value, &flipped),
                    "byte {byte} at {at}: invalid value"
                );
            }
        }
        flipped[at] = frame[at];
    }
}

/// A count run with counts 1, 2 and at least 2¹⁴, gaps of every varint
/// width up to the largest packed k-mer.
fn sample_count_run() -> CountRun {
    CountRun::new(vec![
        (0, 1),
        (1, 2),
        (3, 1 << 14),
        (200, 1),
        (70_000, (1 << 21) - 1),
        (70_001, u32::MAX),
        ((1 << 62) - 2, 3),
        ((1 << 62) - 1, 1),
    ])
}

#[test]
fn count_runs_book_their_varints_and_survive_byte_flips() {
    let run = sample_count_run();
    let frame = encoded(&run);
    assert_eq!(frame.len(), run.nbytes());
    assert_eq!(round_trip(&run), run);
    // Count 1: the gap varint alone (gap 0 → one byte); count 2: the gap
    // varint and one count byte; a dense singleton costs 1 B of 12.
    let single = |records| CountRun::new(records).nbytes() - 1;
    assert_eq!(single(vec![(0, 1)]), 1);
    assert_eq!(single(vec![(0, 2)]), 2);
    assert_eq!(single(vec![(63, 1)]), 1);
    assert_eq!(single(vec![(64, 1)]), 2);
    assert_eq!(single(vec![(0, 129)]), 2);
    assert_eq!(single(vec![(0, 130)]), 3);
    assert_eq!(single(vec![((1 << 62) - 1, (1 << 21) + 1)]), 9 + 3);
    assert_eq!(CountRun::default().nbytes(), 1);
    fuzz_frame::<CountRun>(&frame, 0, |run, _| {
        let records = run.records();
        records.windows(2).all(|w| w[0].0 < w[1].0)
            && records
                .iter()
                .all(|&(kmer, count)| kmer < 1 << 62 && count > 0)
    });
}

#[test]
#[should_panic(expected = "ascends strictly")]
fn a_count_run_refuses_an_unsorted_bucket() {
    CountRun::new(vec![(5, 1), (5, 1)]);
}

/// A's routed triples at the extremes: rows and columns whose gaps need
/// one to five varint bytes, runs of one and of several entries.
fn sorted_a_triples() -> Vec<(u32, u32, AEntry)> {
    let mut triples = Vec::new();
    for (k, &row) in [0u32, 1, 2, 130, 20_000, u32::MAX].iter().enumerate() {
        for col in [0u32, 1, 300, 300 + 20_000, u32::MAX].iter().take(k + 1) {
            triples.push((row, *col, EDGE_ENTRIES[k % EDGE_ENTRIES.len()]));
        }
    }
    triples
}

/// Whether the triples could have come from a run-form frame: rows that
/// never fall, and columns that never fall within a row.
fn runs_hold(triples: &[(u32, u32, AEntry)]) -> bool {
    triples
        .windows(2)
        .all(|w| w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 <= w[1].1))
}

#[test]
fn routed_triples_travel_as_runs_or_flat_and_survive_byte_flips() {
    let sorted = sorted_a_triples();
    let mut unsorted = sorted.clone();
    unsorted.reverse();
    let run_form = |buf: &[u8]| u64::from_ne_bytes(buf[..8].try_into().expect("header")) >> 63 == 1;
    for (triples, runs) in [(sorted, true), (unsorted, false)] {
        let buf = RoutedTriples::new(triples.clone());
        let frame = encoded(&buf);
        assert_eq!(run_form(&frame), runs);
        assert_eq!(frame.len(), buf.nbytes());
        // The flat form is exactly a `Vec` of 12-byte triples; the run
        // form is never larger.
        assert!(buf.nbytes() <= triples.nbytes());
        assert_eq!(buf.nbytes() == triples.nbytes(), !runs);
        assert_eq!(round_trip(&buf).into_triples(), triples);
        fuzz_frame::<RoutedTriples<AEntry>>(&frame, 0, |decoded, flipped| {
            !run_form(flipped) || runs_hold(decoded.triples())
        });
    }
}

/// A `Csr<f64>` frame's structure written code by code, each `u64` as a
/// varint, then the values: the codec's layout, so a test can forge
/// what no encoder writes. A frame's codes are `nrows`, `ncols`, `nnz`,
/// each non-empty row's `(empty rows skipped, len − 1, first column,
/// column gaps…)`, and the empty rows after the last one.
fn csr_frame(codes: &[u64], values: &[f64]) -> Vec<u8> {
    let mut buf = Vec::new();
    for &code in codes {
        write_varint(&mut buf, code);
    }
    for value in values {
        value.wire_encode(&mut buf);
    }
    buf
}

/// The codes of `csr`'s frame, from its rows.
fn layout_codes<T>(csr: &Csr<T>) -> Vec<u64> {
    let mut codes = vec![csr.nrows() as u64, csr.ncols() as u64, csr.nnz() as u64];
    let mut next = 0;
    for row in 0..csr.nrows() {
        let cols = csr.row(row).0;
        if let Some(&first) = cols.first() {
            codes.extend([(row - next) as u64, cols.len() as u64 - 1, u64::from(first)]);
            codes.extend(cols.windows(2).map(|w| u64::from(w[1] - w[0] - 1)));
            next = row + 1;
        }
    }
    codes.push((csr.nrows() - next) as u64);
    codes
}

/// Rows holding at least one entry.
fn nonempty_rows<T>(csr: &Csr<T>) -> usize {
    csr.indptr().windows(2).filter(|w| w[0] < w[1]).count()
}

/// The fixed-width frame the varint layout replaced: 17 B of shape and
/// form tag, the cheaper of `4·(nrows + 1)` B of offsets and `8·nzr` B
/// of `(row id, end offset)` pairs, 4 B per column index, the values.
fn fixed_width_bytes<T: CommMsg>(csr: &Csr<T>) -> usize {
    let rows = (4 * (csr.nrows() + 1)).min(8 * nonempty_rows(csr));
    let values: usize = csr.values().iter().map(CommMsg::nbytes).sum();
    17 + rows + 4 * csr.nnz() + values
}

/// `csr`'s frame against the layout and the decoder: `nbytes` is the
/// coded length, the frame is [`layout_codes`] as varints and then the
/// values, the block comes back equal, strict prefixes are errors and
/// one byte more is `Trailing`.
fn check_csr_frame<T: CommMsg + Clone + PartialEq + std::fmt::Debug>(csr: &Csr<T>) {
    let buf = encoded(csr);
    assert_eq!(buf.len(), csr.nbytes(), "nbytes is the coded length");
    let mut layout = Vec::new();
    for code in layout_codes(csr) {
        write_varint(&mut layout, code);
    }
    for value in csr.values() {
        value.wire_encode(&mut layout);
    }
    assert_eq!(buf, layout, "the frame is the layout, byte for byte");
    assert_eq!(&round_trip(csr), csr);
    // Every cut of a small frame; a long one's at about 512 points.
    let step = (buf.len() / 512).max(1);
    for cut in (0..buf.len()).step_by(step).chain([buf.len() - 1]) {
        assert!(decode_exact::<Csr<T>>(&buf[..cut]).is_err(), "cut at {cut}");
    }
    let mut padded = buf;
    padded.push(0);
    assert_eq!(
        decode_exact::<Csr<T>>(&padded).map(|_| ()),
        Err(WireError::Trailing(1))
    );
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
fn csr_frames_round_trip_at_every_varint_boundary() {
    // No rows, and no entries.
    check_csr_frame(&Csr::<f64>::empty(0, 0));
    check_csr_frame(&Csr::<f64>::empty(0, 5));
    check_csr_frame(&Csr::<f64>::empty(5, 5));
    check_csr_frame(&block_with_rows(1, &[0]));
    check_csr_frame(&block_with_rows(6, &[0, 1, 2, 3, 4, 5]));
    // Skips, trailing rows, run lengths and column gaps on both sides of
    // the one- and two-byte varint limits.
    for edge in [127u32, 128, 16_383, 16_384] {
        check_csr_frame(&block_with_rows(edge as usize + 2, &[edge]));
        check_csr_frame(&block_with_rows(2 * edge as usize + 1, &[0, edge]));
        let row: Vec<(u32, u32, f64)> = (0..=edge).map(|c| (0, c, 1.0)).collect();
        check_csr_frame(&Csr::from_triples(1, edge as usize + 1, row, |_, _| {}));
        let gap = vec![(0, 0, 1.0), (0, edge, 2.0), (0, 2 * edge, 3.0)];
        check_csr_frame(&Csr::from_triples(1, 2 * edge as usize + 1, gap, |_, _| {}));
    }
    // The writer above is the codec's layout, byte for byte: rows 2 and 7
    // of 9, each with columns 0 and 2.
    let block = block_with_rows(9, &[2, 7]);
    assert_eq!(
        encoded(&block),
        csr_frame(&[9, 4, 4, 2, 1, 0, 1, 4, 1, 0, 1, 1], block.values())
    );
}

#[test]
fn a_hypersparse_block_books_its_entries_not_its_rows() {
    let triples = vec![(3, 9, 1.0), (500_000, 0, 2.0), (999_999, 999_999, 3.0)];
    let block = Csr::from_triples(1_000_000, 1_000_000, triples, |_, _| unreachable!());
    // Shape and nnz 3 + 3 + 1 B; row 3 (skip 3, len 1, column 9) 3 B;
    // row 500 000 (skip 499 996, len 1, column 0) 5 B; row 999 999 (skip
    // 499 998, len 1, column 999 999) 7 B; no trailing rows 1 B; three
    // 8-byte values. The fixed-width pairs took 77 B.
    assert_eq!(block.nbytes(), 7 + 3 + 5 + 7 + 1 + 24);
    assert_eq!(fixed_width_bytes(&block), 77);
    check_csr_frame(&block);
}

/// Frames no encoder writes are `Malformed` (or `Truncated`), never a
/// block a kernel would index out of bounds on. Falling and repeated
/// columns cannot be written: a column gap is never negative.
#[test]
fn corrupt_csr_frames_are_malformed_not_a_later_panic() {
    let malformed = |frame: &[u8]| matches!(decode_csr(frame), Err(WireError::Malformed(_)));
    let rows_of = |frame: &[u8]| decode_csr(frame).map(|m| m.indptr().to_vec());
    // A 3 × 3 block: row 0 holds column 2, row 2 columns 0 and 1.
    let codes = [3, 3, 3, 0, 0, 2, 1, 1, 0, 0, 0];
    assert_eq!(rows_of(&csr_frame(&codes, &[1.0; 3])), Ok(vec![0, 1, 1, 3]));
    // A column at or beyond `ncols`: directly, or through a gap.
    assert!(malformed(&csr_frame(&[1, 2, 1, 0, 0, 7, 0], &[1.0])));
    assert!(malformed(&csr_frame(&[1, 2, 1, 0, 0, 2, 0], &[1.0])));
    assert!(malformed(&csr_frame(&[1, 3, 2, 0, 1, 1, 1, 0], &[1.0; 2])));
    // A row past `nrows`: a skip beyond the shape, or a second row after
    // the last one.
    assert!(malformed(&csr_frame(&[3, 3, 1, 3, 0, 0, 0], &[1.0])));
    assert!(malformed(&csr_frame(
        &[1, 3, 2, 0, 0, 0, 0, 0, 1, 0],
        &[1.0; 2]
    )));
    // Offsets that miss `nnz`: a row longer than the entries left, and
    // trailing rows that do not end at `nrows`.
    assert!(malformed(&csr_frame(&[3, 3, 1, 0, 1, 0, 0, 0], &[1.0])));
    assert!(malformed(&csr_frame(&[3, 3, 1, 0, 0, 0, 1], &[1.0])));
    assert!(malformed(&csr_frame(&[3, 3, 1, 0, 0, 0, 3], &[1.0])));
    assert!(malformed(&csr_frame(&[3, 3, 0, 2], &[])));
    assert_eq!(rows_of(&csr_frame(&[3, 3, 0, 3], &[])), Ok(vec![0; 4]));
    // More entries than a `u32` offset addresses, and shapes that no
    // `u32` id addresses.
    assert!(malformed(&csr_frame(&[1, 1, 1 << 32], &[])));
    for dims in [(u64::MAX, 3), (3, u64::MAX), ((1 << 32) + 1, 3)] {
        assert!(malformed(&csr_frame(&[dims.0, dims.1, 0, 0], &[])));
    }
    // Bad varints anywhere: non-minimal, overflowing, over-long.
    let shape = csr_frame(&[3, 3], &[]);
    for bad in [
        &[0x80, 0x00][..],
        &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02],
        &[0x80; 11],
    ] {
        let frame = [&shape[..], bad].concat();
        assert_eq!(
            decode_csr(&frame).map(|_| ()),
            Err(WireError::Malformed("varint"))
        );
        let frame = [bad, &shape[..]].concat();
        assert_eq!(
            decode_csr(&frame).map(|_| ()),
            Err(WireError::Malformed("varint"))
        );
    }
}

fn decode_csr(frame: &[u8]) -> Result<Csr<f64>, WireError> {
    decode_exact(frame)
}

/// Whether a decoded block is one every accessor and kernel can follow:
/// offsets from 0 to `nnz` that never fall, one per row plus one, and
/// columns strictly ascending below `ncols` in every row.
fn structurally_valid<T>(csr: &Csr<T>) -> bool {
    let indptr = csr.indptr();
    indptr.len() == csr.nrows() + 1
        && indptr[0] == 0
        && indptr.windows(2).all(|w| w[0] <= w[1])
        && indptr[csr.nrows()] as usize == csr.nnz()
        && csr.values().len() == csr.nnz()
        && (0..csr.nrows()).all(|i| {
            let cols = csr.row(i).0;
            cols.windows(2).all(|c| c[0] < c[1])
                && cols.last().is_none_or(|&c| (c as usize) < csr.ncols())
        })
}

/// A 300 × 40 000 block with every kind of row: dense rows at the top,
/// a hypersparse stretch, single entries far apart, empty trailing rows.
fn mixed_block<T>(value: impl Fn(u32) -> T) -> Csr<T> {
    let mut triples = Vec::new();
    for row in 0..3u32 {
        triples.extend((0..40).map(|k| (row, k * (row + 1), value(k))));
    }
    for (row, col) in [(9, 0), (140, 200), (141, 39_999), (290, 17_000)] {
        triples.push((row, col, value(row ^ col)));
    }
    Csr::from_triples(300, 40_000, triples, |_, _| unreachable!())
}

#[test]
fn csr_frames_survive_byte_flips() {
    let entries = mixed_block(|s| AEntry {
        pos: s * 977,
        fwd: s & 1 == 1,
    });
    let hops = mixed_block(|s| Hop {
        suffix: s << 20,
        src_rev: s & 2 != 0,
        dst_rev: s & 1 != 0,
    });
    check_csr_frame(&entries);
    check_csr_frame(&hops);
    assert!(entries.nbytes() < fixed_width_bytes(&entries));
    // The decoded offsets of the block's own 300 rows, grown by doubling.
    let offsets = 2 * 4 * 301;
    fuzz_frame::<Csr<AEntry>>(&encoded(&entries), offsets, |m, _| structurally_valid(m));
    fuzz_frame::<Csr<Hop>>(&encoded(&hops), offsets, |m, _| structurally_valid(m));
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    /// Blocks from a few rows to hypersparse, columns narrower than 2²¹:
    /// the frame of every value type a block travels with is its layout,
    /// and books no more than the fixed-width frame it replaced.
    #[test]
    fn csr_frames_book_no_more_than_the_fixed_width_row_forms(
        rows_bits in 0u32..21,
        cols_bits in 0u32..21,
        shape in any::<u64>(),
        seeds in proptest::collection::vec(any::<u32>(), 0..120),
    ) {
        let nrows = (shape as usize) % (1 << rows_bits);
        let ncols = 1 + ((shape >> 32) as usize) % (1 << cols_bits);
        let coords: Vec<(u32, u32, u32)> = if nrows == 0 {
            Vec::new()
        } else {
            seeds
                .iter()
                .map(|&s| (s % nrows as u32, s.rotate_left(11) % ncols as u32, s))
                .collect()
        };
        let block = |value: &dyn Fn(u32) -> f64| {
            let triples = coords.iter().map(|&(r, c, s)| (r, c, value(s))).collect();
            Csr::from_triples(nrows, ncols, triples, |_, _| {})
        };
        let floats = block(&|s| f64::from(s) * 0.5);
        check_csr_frame(&floats);
        prop_assert!(floats.nbytes() <= fixed_width_bytes(&floats));
        let entries = Csr::from_triples(
            nrows,
            ncols,
            coords
                .iter()
                .map(|&(r, c, s)| (r, c, AEntry { pos: s >> 1, fwd: s & 1 == 1 }))
                .collect(),
            |_, _| {},
        );
        check_csr_frame(&entries);
        prop_assert!(entries.nbytes() <= fixed_width_bytes(&entries));
        let hops = Csr::from_triples(
            nrows,
            ncols,
            coords
                .iter()
                .map(|&(r, c, s)| (r, c, Hop { suffix: s, src_rev: s & 2 != 0, dst_rev: s & 1 != 0 }))
                .collect(),
            |_, _| {},
        );
        check_csr_frame(&hops);
        prop_assert!(hops.nbytes() <= fixed_width_bytes(&hops));
    }

    /// A count record costs at most 12 B — what the fixed `(u64, u32)`
    /// record took — while its count stays below 2²¹, whatever its k-mer.
    #[test]
    fn count_records_cost_at_most_twelve_bytes(
        kmers in proptest::collection::vec(any::<u64>(), 0..200),
        counts in proptest::collection::vec(1u32..(1 << 21), 200),
    ) {
        let mut kmers: Vec<u64> = kmers.iter().map(|&k| k >> 2).collect();
        kmers.sort_unstable();
        kmers.dedup();
        let run = CountRun::new(kmers.iter().zip(&counts).map(|(&k, &c)| (k, c)).collect());
        let n = run.records().len();
        let mut count_header = Vec::new();
        write_varint(&mut count_header, n as u64);
        prop_assert!(run.nbytes() - count_header.len() <= 12 * n);
        for &record in run.records() {
            prop_assert!(CountRun::new(vec![record]).nbytes() - 1 <= 12);
        }
        prop_assert_eq!(&round_trip(&run), &run);
        prop_assert_eq!(encoded(&run).len(), run.nbytes());
    }
}
