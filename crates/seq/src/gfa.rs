//! GFA 1.0 export — the interchange format real assemblers emit so that
//! downstream tools (Bandage, gfatools, scaffolders) can inspect the
//! assembly. ELBA-RS writes its contigs as `S` (segment) lines and the
//! read walks that produced them as `P` (path) lines.

use std::io::{self, Write};

use crate::dna::Seq;

/// One segment (a read or contig) of a GFA graph.
#[derive(Debug, Clone)]
pub struct GfaSegment {
    pub name: String,
    pub seq: Seq,
}

/// One path: an ordered oriented walk over segments (a contig).
#[derive(Debug, Clone)]
pub struct GfaPath {
    pub name: String,
    /// (segment name, reverse?) steps.
    pub steps: Vec<(String, bool)>,
}

/// An assembly snapshot ready for GFA serialization.
#[derive(Debug, Clone, Default)]
pub struct GfaGraph {
    pub segments: Vec<GfaSegment>,
    pub paths: Vec<GfaPath>,
}

impl GfaGraph {
    pub fn new() -> Self {
        GfaGraph::default()
    }

    pub fn add_segment(&mut self, name: impl Into<String>, seq: Seq) {
        self.segments.push(GfaSegment {
            name: name.into(),
            seq,
        });
    }

    pub fn add_path(&mut self, name: impl Into<String>, steps: Vec<(String, bool)>) {
        self.paths.push(GfaPath {
            name: name.into(),
            steps,
        });
    }

    /// Serialize as GFA 1.0.
    pub fn write<W: Write>(&self, mut out: W) -> io::Result<()> {
        writeln!(out, "H\tVN:Z:1.0")?;
        for segment in &self.segments {
            writeln!(
                out,
                "S\t{}\t{}\tLN:i:{}",
                segment.name,
                segment.seq,
                segment.seq.len()
            )?;
        }
        for path in &self.paths {
            let steps: Vec<String> = path
                .steps
                .iter()
                .map(|(name, reverse)| format!("{}{}", name, if *reverse { '-' } else { '+' }))
                .collect();
            writeln!(out, "P\t{}\t{}\t*", path.name, steps.join(","))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_expected_records() {
        let mut graph = GfaGraph::new();
        graph.add_segment("read0", "ACGTACGT".parse().expect("dna"));
        graph.add_segment("read1", "TACGTTTT".parse().expect("dna"));
        graph.add_path(
            "contig0",
            vec![("read0".to_owned(), false), ("read1".to_owned(), true)],
        );
        let mut buf = Vec::new();
        graph.write(&mut buf).expect("write");
        assert_eq!(
            String::from_utf8(buf).expect("utf8"),
            "H\tVN:Z:1.0\n\
             S\tread0\tACGTACGT\tLN:i:8\n\
             S\tread1\tTACGTTTT\tLN:i:8\n\
             P\tcontig0\tread0+,read1-\t*\n"
        );
    }
}
