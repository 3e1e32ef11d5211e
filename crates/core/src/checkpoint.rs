//! Checkpoint / restart — the pragmatic answer to the paper's §III
//! exascale challenge 3 ("Resiliency problem. Computation with millions
//! and billions of cores will pose a challenge to error resiliency.").
//!
//! A checkpoint stores the complete dynamical state (all distribution
//! functions plus the step counter) with an integrity checksum, so a
//! failed run resumes *bit-exactly* where it stopped. The distributed
//! variant writes one file per rank (the scalable pattern) and verifies
//! the decomposition on restore.

use crate::solver::Solver;
use crate::DistSolver;
use hemelb_obs::Fnv1a;
use hemelb_parallel::CommResult;
use std::io::{self, Read, Write};
use std::path::Path;

/// Checkpoint file magic.
pub const MAGIC: &[u8; 8] = b"HLBCHKP1";

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// FNV-1a over the raw bytes — cheap corruption detection, not crypto.
fn checksum(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(bytes);
    h.finish()
}

/// Serialised state common to serial and per-rank checkpoints.
struct RawState {
    step: u64,
    site_count: u64,
    q: u64,
    f: Vec<f64>,
}

fn write_state(state: &RawState, w: &mut impl Write) -> io::Result<()> {
    let mut body = Vec::with_capacity(24 + state.f.len() * 8);
    body.extend(state.step.to_le_bytes());
    body.extend(state.site_count.to_le_bytes());
    body.extend(state.q.to_le_bytes());
    for &v in &state.f {
        body.extend(v.to_le_bytes());
    }
    w.write_all(MAGIC)?;
    w.write_all(&checksum(&body).to_le_bytes())?;
    w.write_all(&body)
}

fn read_state(r: &mut impl Read) -> io::Result<RawState> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("not a checkpoint (bad magic)"));
    }
    let mut sum = [0u8; 8];
    r.read_exact(&mut sum)?;
    let expected = u64::from_le_bytes(sum);
    let mut body = Vec::new();
    r.read_to_end(&mut body)?;
    if checksum(&body) != expected {
        return Err(bad("checkpoint corrupted (checksum mismatch)"));
    }
    if body.len() < 24 {
        return Err(bad("checkpoint truncated"));
    }
    let step = u64::from_le_bytes(body[0..8].try_into().expect("8 bytes"));
    let site_count = u64::from_le_bytes(body[8..16].try_into().expect("8 bytes"));
    let q = u64::from_le_bytes(body[16..24].try_into().expect("8 bytes"));
    // The header is outside input: a crafted file can carry a valid
    // (non-cryptographic) checksum, so the product must not overflow.
    let expect_len = site_count
        .checked_mul(q)
        .and_then(|n| n.checked_mul(8))
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| bad("checkpoint header overflows (site count × q)"))?;
    if body.len() - 24 != expect_len {
        return Err(bad(format!(
            "checkpoint body {} bytes, expected {expect_len}",
            body.len() - 24
        )));
    }
    let f = body[24..]
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect();
    Ok(RawState {
        step,
        site_count,
        q,
        f,
    })
}

impl Solver {
    /// Write the complete state to `path`.
    pub fn checkpoint(&self, path: &Path) -> io::Result<()> {
        let state = RawState {
            step: self.step_count(),
            site_count: self.geometry().fluid_count() as u64,
            q: self.model().q as u64,
            f: self.raw_distributions(),
        };
        let mut file = std::fs::File::create(path)?;
        write_state(&state, &mut file)
    }

    /// Restore the state written by [`Solver::checkpoint`]. The solver
    /// must have been constructed over the same geometry and velocity
    /// set; mismatches are rejected.
    pub fn restore(&mut self, path: &Path) -> io::Result<()> {
        let mut file = std::fs::File::open(path)?;
        let state = read_state(&mut file)?;
        if state.site_count as usize != self.geometry().fluid_count() {
            return Err(bad(format!(
                "checkpoint has {} sites, solver has {}",
                state.site_count,
                self.geometry().fluid_count()
            )));
        }
        if state.q as usize != self.model().q {
            return Err(bad("checkpoint velocity set differs"));
        }
        self.lat.install_site_major(state.step, &state.f);
        Ok(())
    }
}

impl<'a> DistSolver<'a> {
    /// Collective checkpoint: every rank writes `dir/rank_<r>.chkp` with
    /// its own sites (the scalable one-file-per-rank pattern).
    pub fn checkpoint(&self, dir: &Path) -> CommResult<()> {
        std::fs::create_dir_all(dir).expect("checkpoint directory");
        let path = dir.join(format!("rank_{}.chkp", self.comm_rank()));
        let state = RawState {
            step: self.step_count(),
            site_count: self.local_sites().len() as u64,
            q: self.model_q() as u64,
            f: self.raw_distributions(),
        };
        let mut file = std::fs::File::create(&path).expect("checkpoint file");
        write_state(&state, &mut file).expect("checkpoint write");
        // Nobody proceeds until every rank's file is on disk.
        self.barrier()
    }

    /// Collective restore of a checkpoint written with the *same*
    /// decomposition.
    ///
    /// # Panics
    /// Panics on I/O errors or mismatched decomposition (an unusable
    /// checkpoint is unrecoverable for the job).
    pub fn restore(&mut self, dir: &Path) -> CommResult<()> {
        let path = dir.join(format!("rank_{}.chkp", self.comm_rank()));
        let mut file = std::fs::File::open(&path).expect("checkpoint file");
        let state = read_state(&mut file).expect("checkpoint parse");
        assert_eq!(
            state.site_count as usize,
            self.local_sites().len(),
            "checkpoint decomposition differs; repartition before restoring"
        );
        assert_eq!(state.q as usize, self.model_q());
        self.lat.install_site_major(state.step, &state.f);
        self.barrier()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolverConfig;
    use hemelb_geometry::VesselBuilder;
    use hemelb_parallel::run_spmd;
    use std::sync::Arc;

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hemelb_chkp_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn serial_checkpoint_resumes_bit_exactly() {
        let geo = Arc::new(VesselBuilder::straight_tube(14.0, 3.0).voxelise(1.0));
        let cfg = SolverConfig::pressure_driven(1.01, 0.99);
        let mut reference = Solver::new(geo.clone(), cfg.clone());
        reference.step_n(30);

        let mut s = Solver::new(geo.clone(), cfg.clone());
        s.step_n(15);
        let dir = scratch_dir("serial");
        let path = dir.join("state.chkp");
        s.checkpoint(&path).unwrap();

        // "Crash": a fresh solver restores and continues.
        let mut resumed = Solver::new(geo, cfg);
        resumed.restore(&path).unwrap();
        assert_eq!(resumed.step_count(), 15);
        resumed.step_n(15);
        assert_eq!(resumed.snapshot().rho, reference.snapshot().rho);
        assert_eq!(resumed.snapshot().u, reference.snapshot().u);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_checkpoint_is_rejected() {
        let geo = Arc::new(VesselBuilder::straight_tube(10.0, 2.0).voxelise(1.0));
        let cfg = SolverConfig::pressure_driven(1.0, 1.0);
        let s = Solver::new(geo.clone(), cfg.clone());
        let dir = scratch_dir("corrupt");
        let path = dir.join("state.chkp");
        s.checkpoint(&path).unwrap();
        // Flip one byte in the body.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n / 2] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();
        let mut fresh = Solver::new(geo, cfg);
        let err = fresh.restore(&path).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_geometry_rejected() {
        let geo_a = Arc::new(VesselBuilder::straight_tube(10.0, 2.0).voxelise(1.0));
        let geo_b = Arc::new(VesselBuilder::straight_tube(12.0, 3.0).voxelise(1.0));
        let cfg = SolverConfig::pressure_driven(1.0, 1.0);
        let s = Solver::new(geo_a, cfg.clone());
        let dir = scratch_dir("mismatch");
        let path = dir.join("state.chkp");
        s.checkpoint(&path).unwrap();
        let mut other = Solver::new(geo_b, cfg);
        assert!(other.restore(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn distributed_checkpoint_resumes_bit_exactly() {
        let geo = Arc::new(VesselBuilder::straight_tube(16.0, 3.0).voxelise(1.0));
        let cfg = SolverConfig::pressure_driven(1.01, 0.99);
        let mut reference = Solver::new(geo.clone(), cfg.clone());
        reference.step_n(20);
        let ref_snap = reference.snapshot();

        let dir = scratch_dir("dist");
        let dir2 = dir.clone();
        let geo2 = geo.clone();
        let results = run_spmd(3, move |comm| {
            let owner: Vec<usize> = (0..geo2.fluid_count())
                .map(|s| (s * comm.size() / geo2.fluid_count()).min(comm.size() - 1))
                .collect();
            let mut ds = DistSolver::new(geo2.clone(), owner.clone(), cfg.clone(), comm).unwrap();
            ds.step_n(12).unwrap();
            ds.checkpoint(&dir2).unwrap();
            // Fresh solver restores mid-flight and finishes the run.
            let mut resumed = DistSolver::new(geo2.clone(), owner, cfg.clone(), comm).unwrap();
            resumed.restore(&dir2).unwrap();
            assert_eq!(resumed.step_count(), 12);
            resumed.step_n(8).unwrap();
            resumed.gather_snapshot().unwrap()
        });
        let snap = results[0].as_ref().unwrap();
        assert_eq!(snap.rho, ref_snap.rho);
        std::fs::remove_dir_all(&dir).ok();
    }
}
