//! The metric catalogue: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` lists the same names (a unit test
//! holds the two together) and adds the regression bounds.

use crate::stats::Better::{self, Higher, Lower};
use crate::verify::PAPER_PHASES;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

fn def(name: &str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.to_owned(),
        unit,
        better,
    }
}

/// What a user of the assembler sees, measured with tracing off.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("wall_s", "s", Lower),
        def("setup_s", "s", Lower),
        def("wire_bytes", "B", Lower),
        def("tracked_peak_bytes", "B", Lower),
        def("completeness_pct", "%", Higher),
    ]
}

/// Per-phase metric families read from `RunProfile`: `<family>.<Phase>`.
pub const PHASE_FAMILIES: [(&str, &str); 6] = [
    ("comm.bytes", "B"),
    ("comm.msgs", "count"),
    ("comm.comm_s", "s"),
    ("comm.wait_s", "s"),
    ("par.par_s", "s"),
    ("mem.hw_bytes", "B"),
];

/// Single-layer metrics from the traced replay, grouped by crate.
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = vec![
        def("seq.read_store_s", "s", Lower),
        def("seq.count_kmers_s", "s", Lower),
        def("seq.build_a_triples_s", "s", Lower),
        def("seq.read_exchange_s", "s", Lower),
        def("seq.kmers_scanned", "count", Lower),
        def("seq.kmers_per_s", "1/s", Higher),
        def("seq.reliable_kmers", "count", Higher),
        def("seq.a_nnz", "count", Lower),
        def("seq.exchange_peak_bytes", "B", Lower),
        def("sparse.from_triples_s", "s", Lower),
        def("sparse.candidate_flops", "count", Lower),
        def("sparse.candidate_nnz", "count", Lower),
        def("sparse.compression_ratio", "flops/nnz", Lower),
        def("sparse.flops_per_s", "1/s", Higher),
        def("sparse.local_spgemm_flops_per_s", "1/s", Higher),
        def("graph.candidate_matrix_s", "s", Lower),
        def("graph.align_and_classify_s", "s", Lower),
        def("graph.overlap_graph_s", "s", Lower),
        def("graph.tr_s", "s", Lower),
        def("graph.symmetrize_s", "s", Lower),
        def("graph.tr_iterations", "count", Lower),
        def("graph.tr_removed", "count", Higher),
        def("graph.string_graph_nnz", "count", Lower),
        def("align.candidate_pairs", "count", Lower),
        def("align.chains_extended", "count", Lower),
        def("align.seeds_skipped", "count", Higher),
        def("align.pairs_per_s", "1/s", Higher),
        def("align.skip_ratio", "ratio", Higher),
        def("align.useful_ratio", "ratio", Higher),
        def("align.xdrop_ext_per_s.bitparallel", "1/s", Higher),
        def("align.xdrop_ext_per_s.scalar", "1/s", Higher),
        def("align.xdrop_ext_per_s.greedy", "1/s", Higher),
        def("core.contig_generation_s", "s", Lower),
        def("core.branch_removal_s", "s", Lower),
        def("core.connected_components_s", "s", Lower),
        def("core.partition_s", "s", Lower),
        def("core.induced_subgraph_s", "s", Lower),
        def("core.local_assembly_s", "s", Lower),
        def("core.gather_contigs_s", "s", Lower),
        def("core.cc_rounds", "count", Lower),
        def("core.branch_vertices", "count", Lower),
        def("core.components", "count", Lower),
        def("core.imbalance", "ratio", Lower),
    ];
    for (family, unit) in PHASE_FAMILIES {
        for phase in PAPER_PHASES {
            defs.push(def(&format!("{family}.{phase}"), unit, Lower));
        }
    }
    defs.extend([
        def("comm.alpha_s", "s", Lower),
        def("comm.beta_Bps", "B/s", Higher),
        def("mem.peak_rss_bytes", "B", Lower),
        def("trace.untraced_wall_s", "s", Lower),
        def("trace.traced_wall_s", "s", Lower),
        def("trace.coverage", "ratio", Higher),
        def("trace.overhead_ratio", "ratio", Lower),
        def("quality.ng50_bp", "bp", Higher),
        def("quality.contigs", "count", Lower),
        def("quality.misassembled_contigs", "count", Lower),
    ]);
    defs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` must list exactly the catalogue's metrics, with
    /// the same units and directions, and exactly the gated workloads.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_owned();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let catalogue = |defs: Vec<MetricDef>| -> Vec<(String, String, String)> {
            defs.into_iter()
                .map(|d| {
                    let better = if d.better == Lower { "lower" } else { "higher" };
                    (d.name, d.unit.to_owned(), better.to_owned())
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), catalogue(end_to_end()));
        assert_eq!(listed("per_layer"), catalogue(per_layer()));
        assert!(per_layer().len() <= 128);
        for m in doc.get("end_to_end").and_then(Json::as_arr).expect("list") {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let mut ours = crate::workloads::all();
        ours.retain(|w| w.gated);
        assert_eq!(names, ours.iter().map(|w| w.name).collect::<Vec<_>>());
        for (w, listed) in ours
            .iter()
            .zip(doc.get("workloads").and_then(Json::as_arr).expect("list"))
        {
            assert_eq!(listed.get("why").and_then(Json::as_str), Some(w.why));
        }
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(all[..i].iter().all(|o| o.name != d.name), "{}", d.name);
        }
    }
}
