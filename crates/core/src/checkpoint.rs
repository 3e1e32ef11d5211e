//! Checkpoint / restart — the pragmatic answer to the paper's §III
//! exascale challenge 3 ("Resiliency problem. Computation with millions
//! and billions of cores will pose a challenge to error resiliency.").
//!
//! A checkpoint stores the complete dynamical state (all distribution
//! functions plus the step counter) with an integrity checksum, so a
//! failed run resumes *bit-exactly* where it stopped. The distributed
//! variant writes one file per rank (the scalable pattern) and verifies
//! the decomposition on restore; a file error on any rank is an error on
//! every rank, never a panic or a peer left waiting. The global variant
//! writes the serial file from a distributed run and restores one on any
//! decomposition.

use crate::solver::Solver;
use crate::DistSolver;
use hemelb_obs::Fnv1a;
use hemelb_parallel::{CommError, CommResult};
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

/// Read the state at `path`, rejecting one of another site count or
/// velocity set.
fn read_matching(path: &Path, sites: usize, q: usize) -> io::Result<RawState> {
    let state = read_state(&mut std::fs::File::open(path)?)?;
    if state.site_count != sites as u64 {
        return Err(bad(format!(
            "checkpoint has {} sites, solver has {sites}; repartition before restoring",
            state.site_count
        )));
    }
    if state.q != q as u64 {
        return Err(bad("checkpoint velocity set differs"));
    }
    Ok(state)
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
        let state = read_matching(path, self.geometry().fluid_count(), self.model().q)?;
        self.lat.install_site_major(state.step, &state.f);
        Ok(())
    }
}

impl<'a> DistSolver<'a> {
    /// Collective checkpoint: every rank writes `dir/rank_<r>.chkp` with
    /// its own sites (the scalable one-file-per-rank pattern), and no
    /// rank returns before every rank's file is on disk.
    ///
    /// A file error is a [`CommError::Decode`] naming the file on the
    /// rank that hit it, and a `Decode` counting the failed ranks on
    /// every other rank.
    pub fn checkpoint(&self, dir: &Path) -> CommResult<()> {
        let path = dir.join(format!("rank_{}.chkp", self.comm().rank()));
        let state = RawState {
            step: self.step_count(),
            site_count: self.local_sites().len() as u64,
            q: self.model().q as u64,
            f: self.raw_distributions(),
        };
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| write_state(&state, &mut std::fs::File::create(&path)?));
        self.agree(written.map_err(|e| file_error(&path, e)))
    }

    /// Collective restore of a checkpoint written with the *same*
    /// decomposition. Errors as [`DistSolver::checkpoint`]; a rank
    /// installs its state only when every rank has read a valid file.
    pub fn restore(&mut self, dir: &Path) -> CommResult<()> {
        let path = dir.join(format!("rank_{}.chkp", self.comm().rank()));
        let read = read_matching(&path, self.local_sites().len(), self.model().q);
        let state = self.agree(read.map_err(|e| file_error(&path, e)))?;
        self.lat.install_site_major(state.step, &state.f);
        Ok(())
    }

    /// Collective checkpoint into the one file at `path` that
    /// [`Solver::checkpoint`] would write: rank 0 gathers every rank's
    /// sites, puts them in global order and writes the file, so a serial
    /// solver or any decomposition can resume from it. Errors as
    /// [`DistSolver::checkpoint`].
    pub fn checkpoint_global(&self, path: &Path) -> CommResult<()> {
        let (q, root) = (self.model().q, self.comm().rank() == 0);
        let n = self.geometry().fluid_count() * usize::from(root);
        let (mut f, mut listed) = (vec![0.0; n * q], vec![false; n]);
        let mut decoded = Ok(());
        self.comm()
            .gather_each(0, self.checkpoint_rows(), |src, rows| {
                if decoded.is_ok() {
                    decoded = decode_rows(&rows, src, self.owner(), q, &mut f, &mut listed);
                }
                Ok(())
            })?;
        let written = decoded.and_then(|()| {
            if !root {
                return Ok(());
            }
            let state = RawState {
                step: self.step_count(),
                site_count: n as u64,
                q: q as u64,
                f,
            };
            std::fs::File::create(path)
                .and_then(|mut file| write_state(&state, &mut file))
                .map_err(|e| file_error(path, e))
        });
        self.agree(written)
    }

    /// This rank's rows of a global checkpoint: for each of its sites,
    /// the `u32` global id and its `q` canonical populations.
    fn checkpoint_rows(&self) -> Vec<u8> {
        let q = self.model().q;
        let raw = self.raw_distributions();
        let mut rows = Vec::with_capacity(raw.len() * 8 + self.local_sites().len() * 4);
        for (&g, f) in self.local_sites().iter().zip(raw.chunks_exact(q)) {
            rows.extend(g.to_le_bytes());
            f.iter().for_each(|v| rows.extend(v.to_le_bytes()));
        }
        rows
    }

    /// Collective restore of the one file written by
    /// [`Solver::checkpoint`] or [`DistSolver::checkpoint_global`], on
    /// whatever decomposition this solver has: every rank reads the
    /// whole file and installs its own sites. Errors as
    /// [`DistSolver::checkpoint`].
    pub fn restore_global(&mut self, path: &Path) -> CommResult<()> {
        let q = self.model().q;
        let read = read_matching(path, self.geometry().fluid_count(), q).map(|state| {
            let rows = self.local_sites().iter().map(|&g| g as usize * q);
            let f: Vec<f64> = rows.flat_map(|at| state.f[at..at + q].to_vec()).collect();
            (state.step, f)
        });
        let (step, f) = self.agree(read.map_err(|e| file_error(path, e)))?;
        self.lat.install_site_major(step, &f);
        Ok(())
    }

    /// This rank's outcome if every rank succeeded, else an error on
    /// every rank (collective: it is also the fence that ends a
    /// checkpoint or restore).
    fn agree<T>(&self, local: CommResult<T>) -> CommResult<T> {
        let failed = self
            .comm()
            .all_reduce_u64(u64::from(local.is_err()), |a, b| a + b)?;
        match local {
            Ok(_) if failed > 0 => Err(CommError::Decode {
                reason: format!("checkpoint failed on {failed} other rank(s)"),
            }),
            local => local,
        }
    }
}

/// Decode rank `rank`'s rows of a global checkpoint into the site-major
/// `f`. They must list exactly the sites the rank owns, each once
/// (`listed` marks them), or it is a `Decode` error.
fn decode_rows(
    rows: &[u8],
    rank: usize,
    owner: &[usize],
    q: usize,
    f: &mut [f64],
    listed: &mut [bool],
) -> CommResult<()> {
    let (row, owned) = (4 + 8 * q, owner.iter().filter(|&&o| o == rank).count());
    let bad = |reason| Err(CommError::Decode { reason });
    if rows.len() != owned * row {
        return bad(format!("rank {rank}: {} bytes of rows", rows.len()));
    }
    for r in rows.chunks_exact(row) {
        let g = u32::from_le_bytes(r[..4].try_into().expect("4 bytes")) as usize;
        if owner.get(g) != Some(&rank) || std::mem::replace(&mut listed[g], true) {
            return bad(format!("rank {rank}: site {g} not its own or listed twice"));
        }
        for (v, b) in f[g * q..(g + 1) * q].iter_mut().zip(r[4..].chunks_exact(8)) {
            *v = f64::from_le_bytes(b.try_into().expect("8 bytes"));
        }
    }
    Ok(())
}

fn file_error(path: &Path, e: io::Error) -> CommError {
    CommError::Decode {
        reason: format!("checkpoint {}: {e}", path.display()),
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

    /// Every rank's global-checkpoint rows of a 2-rank run, each under
    /// every truncation and every single-bit flip: decoding never
    /// panics, every proper prefix is a `Decode` error, and a decode that
    /// succeeds has listed every site exactly once.
    #[test]
    fn checkpoint_rows_survive_every_truncation_and_bit_flip() {
        let geo = Arc::new(VesselBuilder::straight_tube(4.0, 1.5).voxelise(1.0));
        let n = geo.fluid_count();
        let owner: Vec<usize> = (0..n).map(|s| s * 2 / n).collect();
        let (geo2, owner2) = (geo.clone(), owner.clone());
        let mut parts = run_spmd(2, move |comm| {
            let cfg = SolverConfig::pressure_driven(1.01, 0.99);
            let mut ds = DistSolver::new(geo2.clone(), owner2.clone(), cfg, comm).unwrap();
            ds.step_n(3).unwrap();
            ds.checkpoint_rows()
        });
        let q = 15;
        let decode = |parts: &[Vec<u8>]| -> CommResult<Vec<bool>> {
            let (mut f, mut listed) = (vec![0.0; n * q], vec![false; n]);
            for (rank, rows) in parts.iter().enumerate() {
                decode_rows(rows, rank, &owner, q, &mut f, &mut listed)?;
            }
            Ok(listed)
        };
        assert_eq!(decode(&parts).unwrap(), vec![true; n]);
        for rank in 0..2 {
            let valid = parts[rank].clone();
            for len in 0..valid.len() {
                parts[rank] = valid[..len].to_vec();
                let got = decode(&parts);
                assert!(matches!(got, Err(CommError::Decode { .. })), "{len} bytes");
            }
            for bit in 0..valid.len() * 8 {
                parts[rank] = valid.clone();
                parts[rank][bit / 8] ^= 1 << (bit % 8);
                match decode(&parts) {
                    Ok(listed) => assert!(listed.iter().all(|&l| l), "bit {bit}"),
                    Err(CommError::Decode { .. }) => {}
                    Err(other) => panic!("bit {bit}: {other:?}"),
                }
            }
            parts[rank] = valid;
        }
    }

    #[test]
    fn bad_rank_file_is_an_error_on_every_rank_not_a_panic() {
        let geo = Arc::new(VesselBuilder::straight_tube(16.0, 3.0).voxelise(1.0));
        let cfg = SolverConfig::pressure_driven(1.01, 0.99);
        let dir = scratch_dir("bad_rank");
        let (geo2, cfg2, dir2) = (geo.clone(), cfg.clone(), dir.clone());
        let results = run_spmd(3, move |comm| {
            let (geo, cfg, dir) = (&geo2, &cfg2, &dir2);
            let owner: Vec<usize> = (0..geo.fluid_count())
                .map(|s| s * comm.size() / geo.fluid_count())
                .collect();
            let mut ds = DistSolver::new(geo.clone(), owner, cfg.clone(), comm).unwrap();
            ds.step_n(4).unwrap();
            ds.checkpoint(dir).unwrap();
            if comm.rank() == 1 {
                // Flip one body byte of this rank's own file.
                let path = dir.join("rank_1.chkp");
                let mut bytes = std::fs::read(&path).unwrap();
                let n = bytes.len();
                bytes[n / 2] ^= 0x01;
                std::fs::write(&path, bytes).unwrap();
            }
            comm.barrier().unwrap();
            let mut fresh =
                DistSolver::new(geo.clone(), ds.owner().to_vec(), cfg.clone(), comm).unwrap();
            (fresh.restore(dir), fresh.step_count())
        });
        match &results[1].0 {
            Err(CommError::Decode { reason }) => {
                assert!(reason.contains("rank_1.chkp"), "{reason}");
                assert!(reason.contains("checksum"), "{reason}");
            }
            other => panic!("rank 1 must fail to decode its file: {other:?}"),
        }
        for (rank, (outcome, step)) in results.iter().enumerate() {
            assert!(outcome.is_err(), "rank {rank} restored half a world");
            assert_eq!(*step, 0, "rank {rank} installed state");
        }
        // A checkpoint into a path that is a file fails the same way.
        let not_a_dir = dir.join("rank_0.chkp");
        let results = run_spmd(2, move |comm| {
            let owner: Vec<usize> = (0..geo.fluid_count()).map(|s| s % comm.size()).collect();
            let ds = DistSolver::new(geo.clone(), owner, cfg.clone(), comm).unwrap();
            ds.checkpoint(&not_a_dir)
        });
        assert!(results.iter().all(|r| r.is_err()), "{results:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
