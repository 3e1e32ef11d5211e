//! Distributed two-level geometry loading (§IV-B of the paper).
//!
//! "HemeLB reads data from a two-level file format […] A subset of the
//! cores then read the detailed geometry data and distribute the data to
//! those cores that require it. This approach minimises stress on the
//! filesystem. Additionally, the number of reading cores enables control
//! over the balance between file I/O and distribution communication."
//!
//! [`read_distributed`] implements exactly that trade-off and is the
//! device under test in experiment **E8**: with `R` reading ranks out of
//! `P`, each reader reads a contiguous slice of level two and forwards
//! each block's site records to the rank that owns the block under the
//! initial approximate decomposition computed from level one.

use crate::format::{read_block_sites, read_header, SgmyHeader, SiteRecord};
use crate::lattice::SiteKind;
use bytes::Bytes;
use hemelb_parallel::{CommError, CommResult, Communicator, Tag, Wire, WireReader, WireWriter};
use std::fs::File;
use std::io::{BufReader, Read, Seek};
use std::path::Path;

const T_SITES: Tag = Tag::geometry(1);

/// Greedy contiguous assignment of blocks to `parts` owners, balanced by
/// fluid-site count — the "initial approximate load balance" HemeLB
/// derives from level one before reading site data.
pub fn plan_block_owners(fluid_per_block: &[u32], parts: usize) -> Vec<usize> {
    assert!(parts > 0);
    let total: u64 = fluid_per_block.iter().map(|&c| c as u64).sum();
    let target = total as f64 / parts as f64;
    let mut owner = vec![0usize; fluid_per_block.len()];
    let mut current = 0usize;
    let mut acc = 0u64;
    for (b, &count) in fluid_per_block.iter().enumerate() {
        owner[b] = current;
        acc += count as u64;
        if current + 1 < parts && (acc as f64) >= target * (current as f64 + 1.0) {
            current += 1;
        }
    }
    owner
}

/// Contiguous split of the block list among `readers`, balanced by
/// byte volume (site counts): `reader_ranges[r]` is the half-open block
/// range read by reader `r`.
pub fn plan_reader_ranges(fluid_per_block: &[u32], readers: usize) -> Vec<std::ops::Range<usize>> {
    let owner = plan_block_owners(fluid_per_block, readers);
    let mut ranges = vec![0..0; readers];
    let mut start = 0usize;
    let mut cur = 0usize;
    for (b, &o) in owner.iter().enumerate() {
        if o != cur {
            ranges[cur] = start..b;
            start = b;
            cur = o;
        }
    }
    ranges[cur] = start..fluid_per_block.len();
    // Any readers after `cur` get empty trailing ranges.
    for r in ranges.iter_mut().skip(cur + 1) {
        *r = fluid_per_block.len()..fluid_per_block.len();
    }
    ranges
}

/// What one rank ends up holding after a distributed read.
#[derive(Debug)]
pub struct DistributedGeometry {
    /// The file header (replicated on every rank via broadcast).
    pub header: SgmyHeader,
    /// Block-to-owner map under the initial approximate decomposition.
    pub block_owner: Vec<usize>,
    /// The site records owned by this rank, sorted by position.
    pub my_sites: Vec<SiteRecord>,
    /// Bytes this rank read from the file (0 for non-readers).
    pub file_bytes_read: u64,
}

impl Wire for SiteRecord {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.position[0]);
        w.put_u32(self.position[1]);
        w.put_u32(self.position[2]);
        let (code, id) = self.kind.to_code();
        w.put_u8(code);
        w.put_u32(id as u32);
    }
    fn decode(r: &mut WireReader) -> CommResult<Self> {
        let position = [r.get_u32()?, r.get_u32()?, r.get_u32()?];
        let code = r.get_u8()?;
        let id = r.get_u32()? as u16;
        let kind = SiteKind::from_code(code, id).ok_or(CommError::Decode {
            reason: format!("invalid site kind code {code}"),
        })?;
        Ok(SiteRecord { position, kind })
    }
}

/// Broadcast the file's header and level-one bytes, as they are on
/// disk, from rank 0 (`raw` is `None` elsewhere) and parse them on every
/// rank with the format's own reader.
fn share_header(comm: &Communicator, raw: Option<Bytes>) -> CommResult<SgmyHeader> {
    let raw = comm.broadcast(0, raw)?;
    read_header(&mut &raw[..]).map_err(|e| CommError::Decode {
        reason: format!("sgmy header: {e}"),
    })
}

/// SPMD entry point: collectively load `path` with the first `n_readers`
/// ranks doing file I/O. Every rank returns its owned slice of the
/// geometry. Must be called by all ranks of `comm`.
///
/// A file that cannot be opened or parsed is an error on **every** rank,
/// never a panic or a hang: the header's failure reaches the peers
/// through its broadcast, and the readers agree on their outcome in one
/// all-reduce before any rank waits for site records. The rank that hit
/// the fault gets a [`CommError::Decode`] naming the file, the others a
/// `Decode` counting the failed ranks.
pub fn read_distributed(
    path: &Path,
    comm: &Communicator,
    n_readers: usize,
) -> CommResult<DistributedGeometry> {
    let p = comm.size();
    let n_readers = n_readers.clamp(1, p);

    // Rank 0 reads header + level one, broadcasts both; on a file error
    // it broadcasts no bytes, which every rank fails to parse.
    let level_one = comm.is_master().then(|| -> std::io::Result<Bytes> {
        let mut f = File::open(path)?;
        let h = read_header(&mut BufReader::new(&f))?;
        let mut raw = vec![0u8; h.data_offset as usize];
        f.rewind()?;
        f.read_exact(&mut raw)?;
        Ok(Bytes::from(raw))
    });
    let raw = level_one
        .as_ref()
        .map(|r| r.as_ref().map_or_else(|_| Bytes::new(), Bytes::clone));
    let header = share_header(comm, raw);
    if let Some(Err(e)) = level_one {
        return Err(file_error(path, e));
    }
    let header = header?;

    let block_owner = plan_block_owners(&header.fluid_per_block, p);
    let reader_ranges = plan_reader_ranges(&header.fluid_per_block, n_readers);

    // Phase 2: readers read their slice, all ranks agree that every
    // read succeeded, then the readers forward per-owner batches.
    let range = reader_ranges.get(comm.rank()).cloned().unwrap_or(0..0);
    let read = if range.is_empty() {
        Ok(Vec::new())
    } else {
        File::open(path)
            .and_then(|mut f| read_block_sites(&header, &mut f, range.clone()))
            .map_err(|e| file_error(path, e))
    };
    let failed = comm.all_reduce_u64(u64::from(read.is_err()), |a, b| a + b)?;
    let records = match read {
        Ok(_) if failed > 0 => {
            return Err(CommError::Decode {
                reason: format!("geometry read failed on {failed} other rank(s)"),
            })
        }
        read => read?,
    };
    let file_bytes_read = records.len() as u64 * crate::format::SITE_RECORD_BYTES;

    // Group records by owning rank (blocks are contiguous per owner, so
    // batches stay in block order).
    let mut batches: Vec<Vec<SiteRecord>> = vec![Vec::new(); p];
    let mut cursor = 0usize;
    for b in range {
        let n = header.fluid_per_block[b] as usize;
        batches[block_owner[b]].extend_from_slice(&records[cursor..cursor + n]);
        cursor += n;
    }
    for (owner, batch) in batches.into_iter().enumerate() {
        if !batch.is_empty() {
            comm.send_wire(owner, T_SITES, &batch)?;
        }
    }

    // Phase 3: every rank collects the records for the blocks it owns.
    let expected: u64 = header
        .fluid_per_block
        .iter()
        .zip(&block_owner)
        .filter(|(_, &o)| o == comm.rank())
        .map(|(&c, _)| c as u64)
        .sum();
    let mut my_sites: Vec<SiteRecord> = Vec::with_capacity(expected as usize);
    while (my_sites.len() as u64) < expected {
        let (_, payload) = comm.recv_any(T_SITES)?;
        let batch = Vec::<SiteRecord>::from_bytes(payload)?;
        my_sites.extend(batch);
    }
    my_sites.sort_unstable_by_key(|s| s.position);

    // Make the read collective: nobody proceeds until all data arrived
    // (mirrors HemeLB's synchronous initialisation).
    comm.barrier()?;

    Ok(DistributedGeometry {
        header,
        block_owner,
        my_sites,
        file_bytes_read,
    })
}

fn file_error(path: &Path, e: std::io::Error) -> CommError {
    CommError::Decode {
        reason: format!("geometry {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::write_sgmy;
    use crate::vessels::VesselBuilder;
    use hemelb_parallel::run_spmd_with_stats;
    use std::io::Write as _;

    /// One file per test (`tag`): tests run on parallel threads and each
    /// removes its file when done.
    fn write_demo_file(tag: &str) -> (std::path::PathBuf, usize) {
        let geo = VesselBuilder::aneurysm(24.0, 5.0, 6.0).voxelise(1.0);
        let mut buf = Vec::new();
        write_sgmy(&geo, 8, &mut buf).unwrap();
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "hemelb_distio_test_{}_{tag}.sgmy",
            std::process::id()
        ));
        let mut f = File::create(&path).unwrap();
        f.write_all(&buf).unwrap();
        (path, geo.fluid_count())
    }

    #[test]
    fn owners_cover_all_blocks_and_balance() {
        let counts = vec![4u32, 0, 8, 8, 2, 2, 0, 8];
        let owner = plan_block_owners(&counts, 4);
        assert_eq!(owner.len(), counts.len());
        assert!(owner.windows(2).all(|w| w[0] <= w[1]), "contiguous");
        assert_eq!(*owner.last().unwrap(), 3, "all parts used");
    }

    #[test]
    fn reader_ranges_partition_blocks() {
        let counts = vec![4u32, 0, 8, 8, 2, 2, 0, 8];
        for readers in [1, 2, 3, 4] {
            let ranges = plan_reader_ranges(&counts, readers);
            assert_eq!(ranges.len(), readers);
            let mut covered = 0;
            for r in &ranges {
                assert_eq!(r.start, covered, "ranges must be contiguous");
                covered = r.end;
            }
            assert_eq!(covered, counts.len());
        }
    }

    #[test]
    fn distributed_read_delivers_every_site_exactly_once() {
        let (path, fluid_count) = write_demo_file("exactly_once");
        for (p, readers) in [(1, 1), (4, 1), (4, 2), (4, 4), (6, 3)] {
            let path2 = path.clone();
            let out = run_spmd_with_stats(p, move |comm| {
                let dg = read_distributed(&path2, comm, readers).unwrap();
                dg.my_sites.len()
            });
            let total: usize = out.results.iter().sum();
            assert_eq!(total, fluid_count, "p={p} readers={readers}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fewer_readers_means_less_file_io_but_more_forwarding() {
        let (path, _) = write_demo_file("readers");
        let p = 8;
        let run = |readers: usize| {
            let path2 = path.clone();
            run_spmd_with_stats(p, move |comm| {
                let dg = read_distributed(&path2, comm, readers).unwrap();
                dg.file_bytes_read
            })
        };
        let one = run(1);
        let all = run(8);
        // With one reader, that rank reads the whole file.
        let one_total_read: u64 = one.results.iter().sum();
        let all_total_read: u64 = all.results.iter().sum();
        assert_eq!(one_total_read, all_total_read, "same bytes read in total");
        assert!(one.results[0] == one_total_read, "single reader reads all");
        // With every rank reading its own slice, forwarding traffic drops.
        use hemelb_parallel::TagClass;
        let fwd_one = one.summary.total.bytes(TagClass::Geometry);
        let fwd_all = all.summary.total.bytes(TagClass::Geometry);
        assert!(
            fwd_all < fwd_one,
            "self-owned blocks need no forwarding: {fwd_all} !< {fwd_one}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn site_record_wire_round_trip() {
        let rec = SiteRecord {
            position: [3, 700, 12],
            kind: SiteKind::Inlet(5),
        };
        let b = rec.to_bytes();
        assert_eq!(SiteRecord::from_bytes(b).unwrap(), rec);
    }

    /// The broadcast header is the file's own bytes through the file's
    /// own reader: intact it round-trips, and truncated or with any one
    /// bit flipped it is a typed error (or a header that still passes
    /// every check) on the master and the non-master alike — no panic.
    #[test]
    fn header_broadcast_round_trips_and_corruption_is_a_typed_error() {
        let geo = VesselBuilder::straight_tube(12.0, 3.0).voxelise(1.0);
        let mut buf = Vec::new();
        write_sgmy(&geo, 8, &mut buf).unwrap();
        let h = read_header(&mut std::io::Cursor::new(&buf)).unwrap();
        buf.truncate(h.data_offset as usize);
        hemelb_parallel::run_spmd(2, move |comm| {
            let share = |bytes: &[u8]| {
                let raw = comm.is_master().then(|| Bytes::copy_from_slice(bytes));
                share_header(comm, raw)
            };
            let h2 = share(&buf).unwrap();
            assert_eq!(h2.shape, h.shape);
            assert_eq!(h2.fluid_per_block, h.fluid_per_block);
            assert_eq!(h2.iolets, h.iolets);
            assert_eq!(h2.data_offset, h.data_offset);

            for cut in [0, 3, 7, buf.len() / 2, buf.len() - 1] {
                let got = share(&buf[..cut]);
                assert!(matches!(got, Err(CommError::Decode { .. })), "cut {cut}");
            }
            let mut rejected = 0;
            for bit in 0..buf.len() * 8 {
                let mut bad = buf.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                match share(&bad) {
                    Err(CommError::Decode { .. }) => rejected += 1,
                    // A flip no check covers (a coordinate, a radius).
                    Ok(_) => assert!(bit >= 64, "magic and version are checked"),
                    Err(e) => panic!("bit {bit}: {e}"),
                }
            }
            // Magic, version and every level-one count at the least.
            assert!(rejected >= 64 + h.fluid_per_block.len() * 32);
        });
    }

    /// A missing file and a truncated level two are an `Err` on every
    /// rank — the failed reader's peers among them — not a panic and not
    /// owners left waiting for site records that never come.
    #[test]
    fn missing_or_truncated_file_is_an_error_on_every_rank() {
        let missing = std::env::temp_dir().join(format!(
            "hemelb_distio_test_{}_missing.sgmy",
            std::process::id()
        ));
        for p in [1, 3] {
            let errs = hemelb_parallel::run_spmd(p, |comm| read_distributed(&missing, comm, 1));
            assert!(errs.iter().all(|r| r.is_err()), "p={p}: {errs:?}");
        }

        let (path, _) = write_demo_file("truncated");
        let len = std::fs::metadata(&path).unwrap().len();
        File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 10)
            .unwrap();
        let got = hemelb_parallel::run_spmd(3, |comm| read_distributed(&path, comm, 2));
        std::fs::remove_file(&path).ok();
        for (rank, r) in got.iter().enumerate() {
            assert!(
                matches!(r, Err(CommError::Decode { .. })),
                "rank {rank}: {r:?}"
            );
        }
        // Only the reader of the last blocks hit the truncation; its
        // peers learn of it from the agreement.
        let peer = |r: &CommResult<DistributedGeometry>| matches!(r, Err(CommError::Decode { reason }) if reason.contains("on 1 other rank"));
        assert!(peer(&got[0]) && !peer(&got[1]) && peer(&got[2]));
    }
}
