//! The `figures` bench against the eight binaries it replaced: the files
//! under `golden/` are those binaries' stdout, captured at the commit
//! that deleted them. Column widths are not part of the contract (one
//! table printer replaced 27 format strings); cells are.

use elba_bench::figures::{select, FIGURES};

const NAMES: [&str; 8] = [
    "table1", "table2", "table3", "table4", "fig4", "fig5", "fig6", "ablation",
];

fn args(names: &[&str]) -> Vec<String> {
    names.iter().map(|name| name.to_string()).collect()
}

fn printed(name: &str) -> String {
    let mut out = Vec::new();
    for figure in select(&args(&[name])).expect("known figure") {
        figure.print(&mut out).expect("write to a Vec");
    }
    String::from_utf8(out).expect("figures print UTF-8")
}

/// Runs of spaces collapse to one and line ends are trimmed, so two
/// renderings compare cell for cell.
fn cells(text: &str) -> Vec<String> {
    text.lines()
        .map(|line| line.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect()
}

#[test]
fn dispatch_table_lists_exactly_the_eight_sections() {
    assert_eq!(FIGURES.map(|figure| figure.name), NAMES);
    let selected = |names: &[&str]| -> Vec<&str> {
        let figures = select(&args(names)).expect("known figures");
        figures.iter().map(|figure| figure.name).collect()
    };
    assert_eq!(selected(&[]), NAMES);
    // cargo appends `--bench` to a `harness = false` target's arguments
    assert_eq!(selected(&["--bench"]), NAMES);
    assert_eq!(selected(&["fig6", "table2", "--bench"]), ["fig6", "table2"]);
}

#[test]
fn unknown_name_is_a_usage_error_listing_the_names() {
    for (bad, offender) in [
        (&["table9"][..], "table9"),
        (&["table1", "fig7", "--bench"], "fig7"),
        (&["--help"], "--help"),
        (&["--benches"], "--benches"),
    ] {
        let message = match select(&args(bad)) {
            Ok(_) => panic!("{bad:?} must select nothing"),
            Err(message) => message,
        };
        assert!(message.contains(offender), "{message}");
        assert!(NAMES.iter().all(|name| message.contains(name)), "{message}");
    }
}

#[test]
fn table1_and_table2_print_the_retired_binaries_rows() {
    assert_eq!(
        cells(&printed("table1")),
        cells(include_str!("golden/table1.txt"))
    );
    assert_eq!(
        cells(&printed("table2")),
        cells(include_str!("golden/table2.txt"))
    );
}

/// One row of `golden/table4.txt` is not the retired binary's: its
/// O. sativa minimizer row changed from run to run (the baseline seeded
/// each pair from whichever shared k-mer its `HashMap` yielded first).
/// The baseline now takes the smallest k-mer — one of the orders the old
/// code could draw — and the row is recorded from that.
#[test]
fn table4_prints_the_retired_binarys_rows() {
    assert_eq!(
        cells(&printed("table4")),
        cells(include_str!("golden/table4.txt"))
    );
}

#[test]
fn ablation_prints_the_retired_binarys_rows_up_to_timing() {
    // The last cell of a strategy row is the partitioner's measured µs.
    fn untimed(lines: Vec<String>) -> Vec<String> {
        lines
            .into_iter()
            .map(|line| {
                let is_strategy_row = ["LPT (paper) ", "greedy ", "round-robin "]
                    .iter()
                    .any(|label| line.starts_with(label));
                match line.rsplit_once(' ') {
                    Some((rest, _micros)) if is_strategy_row => rest.to_owned(),
                    _ => line,
                }
            })
            .collect()
    }
    let ours = untimed(cells(&printed("ablation")));
    assert_eq!(ours, untimed(cells(include_str!("golden/ablation.txt"))));
    assert_eq!(
        ours.iter()
            .filter(|l| l.starts_with("LPT (paper) "))
            .count(),
        5
    );
}
