//! The paper's evaluation, one section per table or figure:
//!
//! ```sh
//! cargo bench -p elba-bench --bench figures -- [table1|table2|table3|table4|fig4|fig5|fig6|ablation]…
//! ```
//!
//! No name prints all eight; an unknown name is exit 2.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let figures = match elba_bench::figures::select(&args) {
        Ok(figures) => figures,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    let mut out = std::io::stdout().lock();
    for figure in figures {
        if let Err(err) = figure.print(&mut out) {
            eprintln!("error: cannot write to stdout: {err}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
