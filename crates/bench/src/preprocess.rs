//! Experiment E8 — §IV-B's two-level read: "the number of reading cores
//! enables control over the balance between file I/O and distribution
//! communication."
//!
//! Write the aneurysm geometry as `.sgmy`, then load it with `R` of `P`
//! ranks reading, sweeping `R`; measure per-reader file bytes (the
//! filesystem pressure) against forwarding traffic (the distribution
//! communication). How long the load takes is the repo benchmark's
//! `geometry.read_distributed_s` on `prep_cold`.

use crate::workloads::{self, Size};
use hemelb_geometry::distio::read_distributed;
use hemelb_geometry::format::write_sgmy;
use hemelb_parallel::{run_spmd_with_stats, TagClass};
use std::fmt;
use std::path::PathBuf;

/// One reader-count measurement.
#[derive(Debug, Clone)]
pub struct PreprocessRow {
    /// Reading ranks.
    pub readers: usize,
    /// Maximum file bytes read by any single rank (filesystem hotspot).
    pub max_file_bytes_per_reader: u64,
    /// Total forwarding (geometry-class) bytes.
    pub forward_bytes: u64,
}

/// The sweep.
pub struct PreprocessResult {
    /// Ranks.
    pub ranks: usize,
    /// File size on disk.
    pub file_bytes: u64,
    /// Total sites.
    pub sites: usize,
    /// Rows by reader count.
    pub rows: Vec<PreprocessRow>,
}

/// Run E8 with `p` ranks and the given reader counts.
pub fn run(size: Size, p: usize, reader_counts: &[usize]) -> PreprocessResult {
    let geo = workloads::aneurysm(size);
    let mut buf = Vec::new();
    write_sgmy(&geo, 8, &mut buf).expect("in-memory serialisation");
    let path: PathBuf = std::env::temp_dir().join(format!(
        "hemelb_e8_{}_{}.sgmy",
        std::process::id(),
        geo.fluid_count()
    ));
    std::fs::write(&path, &buf).expect("scratch geometry file");
    let file_bytes = buf.len() as u64;

    let mut rows = Vec::new();
    for &readers in reader_counts {
        let path2 = path.clone();
        let out = run_spmd_with_stats(p, move |comm| {
            let dg = read_distributed(&path2, comm, readers).unwrap();
            (dg.file_bytes_read, dg.my_sites.len())
        });
        let total_sites: usize = out.results.iter().map(|r| r.1).sum();
        assert_eq!(total_sites, geo.fluid_count(), "every site delivered once");
        rows.push(PreprocessRow {
            readers,
            max_file_bytes_per_reader: out.results.iter().map(|r| r.0).max().unwrap_or(0),
            forward_bytes: out.summary.total.bytes(TagClass::Geometry),
        });
    }
    std::fs::remove_file(&path).ok();
    PreprocessResult {
        ranks: p,
        file_bytes,
        sites: geo.fluid_count(),
        rows,
    }
}

impl fmt::Display for PreprocessResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Two-level geometry load ({} ranks, {} file, {} sites): file I/O vs redistribution",
            self.ranks,
            workloads::fmt_bytes(self.file_bytes),
            self.sites
        )?;
        writeln!(
            f,
            "{:>8} {:>20} {:>16}",
            "readers", "max file B / reader", "forwarded B"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>8} {:>20} {:>16}",
                r.readers,
                workloads::fmt_bytes(r.max_file_bytes_per_reader),
                workloads::fmt_bytes(r.forward_bytes),
            )?;
        }
        writeln!(
            f,
            "(more readers spread the filesystem load; forwarding vanishes when every rank reads its own blocks)"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_sweep_shows_the_tradeoff() {
        let result = run(Size::Tiny, 8, &[1, 2, 4, 8]);
        assert_eq!(result.rows.len(), 4);
        // One reader bears the whole file; more readers spread it.
        let one = &result.rows[0];
        let all = &result.rows[3];
        assert!(one.max_file_bytes_per_reader > all.max_file_bytes_per_reader);
        // Forwarding shrinks as readers own more of what they read.
        assert!(
            all.forward_bytes < one.forward_bytes,
            "{} !< {}",
            all.forward_bytes,
            one.forward_bytes
        );
    }
}
