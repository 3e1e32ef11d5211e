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
//! initial approximate decomposition computed from level one. A reader
//! never decodes: it forwards each owner's run of blocks as the file
//! holds it, and the owner decodes that run with the format's own
//! decoder.

use crate::format::{decode_block_records, read_header, SgmyHeader, SiteRecord, SITE_RECORD_BYTES};
use hemelb_parallel::{CommError, CommResult, Communicator, Tag};
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::ops::Range;
use std::path::Path;

const T_SITES: Tag = Tag::geometry(1);

/// Greedy contiguous assignment of blocks to `parts` owners, balanced by
/// fluid-site count — the "initial approximate load balance" HemeLB
/// derives from level one before reading site data.
pub(crate) fn plan_block_owners(fluid_per_block: &[u32], parts: usize) -> Vec<usize> {
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
pub(crate) fn plan_reader_ranges(
    fluid_per_block: &[u32],
    readers: usize,
) -> Vec<std::ops::Range<usize>> {
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

/// Bytes of a forwarded batch's header: the first and the end block of
/// its run, two little-endian `u64`s, ahead of the run's raw records.
const BATCH_HEADER: usize = 16;

/// Every batch of one distributed read, as `(reader, owner, blocks)`:
/// each reader's range split into maximal runs of one owner, runs that
/// hold no site left out. Readers and owners both derive their part of
/// the traffic from it; an owner hears from each reader at most once,
/// in reader order, which is block order.
fn batches<'a>(
    header: &'a SgmyHeader,
    block_owner: &'a [usize],
    reader_ranges: &'a [Range<usize>],
) -> impl Iterator<Item = (usize, usize, Range<usize>)> + 'a {
    reader_ranges
        .iter()
        .enumerate()
        .flat_map(move |(reader, range)| {
            let owners = &block_owner[range.clone()];
            owners
                .chunk_by(|a, b| a == b)
                .scan(range.start, move |start, run| {
                    let blocks = *start..*start + run.len();
                    *start = blocks.end;
                    Some((reader, run[0], blocks))
                })
                .filter(|(_, _, blocks)| {
                    header.fluid_per_block[blocks.clone()]
                        .iter()
                        .any(|&c| c > 0)
                })
        })
}

/// Read blocks `blocks`' level two from `f` into a batch: its header,
/// then the records as the file holds them. The records are read
/// through a length-limited reader, so a short file is `UnexpectedEof`,
/// not a buffer sized by level one's claim.
fn read_batch(header: &SgmyHeader, f: &mut File, blocks: Range<usize>) -> std::io::Result<Vec<u8>> {
    let sites: u64 = header.fluid_per_block[blocks.clone()]
        .iter()
        .map(|&c| c as u64)
        .sum();
    let bytes = sites * SITE_RECORD_BYTES;
    let mut batch = Vec::new();
    batch.extend_from_slice(&(blocks.start as u64).to_le_bytes());
    batch.extend_from_slice(&(blocks.end as u64).to_le_bytes());
    f.seek(SeekFrom::Start(header.block_offset(blocks.start)))?;
    f.take(bytes).read_to_end(&mut batch)?;
    if (batch.len() - BATCH_HEADER) as u64 != bytes {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    Ok(batch)
}

/// Decode one forwarded batch onto `out`: its header must name
/// `expected`, the run this owner awaits from that reader, and its
/// records go through the format's decoder with every per-record check.
fn decode_batch(
    header: &SgmyHeader,
    expected: &Range<usize>,
    batch: &[u8],
    out: &mut Vec<SiteRecord>,
) -> CommResult<()> {
    let decode = |reason: String| CommError::Decode { reason };
    let (head, raw) = batch
        .split_at_checked(BATCH_HEADER)
        .ok_or_else(|| decode(format!("site batch of {} bytes", batch.len())))?;
    let word = |i: usize| u64::from_le_bytes(head[8 * i..8 * i + 8].try_into().expect("8 bytes"));
    if (word(0), word(1)) != (expected.start as u64, expected.end as u64) {
        return Err(decode(format!(
            "site batch for blocks {}..{}, expected {expected:?}",
            word(0),
            word(1)
        )));
    }
    decode_block_records(header, expected.clone(), raw, out)
        .map_err(|e| decode(format!("site batch: {e}")))
}

/// `sites` in position order, by stable counting passes on z, then y,
/// then x. Positions are unique, so this is the order any sort by
/// position gives. Every coordinate lies inside `shape` (the decoder
/// checked it).
fn sort_by_position(sites: Vec<SiteRecord>, shape: [usize; 3]) -> Vec<SiteRecord> {
    let mut from = sites;
    let mut to = from.clone();
    for axis in [2, 1, 0] {
        let mut next = vec![0usize; shape[axis] + 1];
        for s in &from {
            next[s.position[axis] as usize + 1] += 1;
        }
        for k in 1..next.len() {
            next[k] += next[k - 1];
        }
        for s in &from {
            let at = &mut next[s.position[axis] as usize];
            to[*at] = *s;
            *at += 1;
        }
        std::mem::swap(&mut from, &mut to);
    }
    from
}

/// Broadcast the file's header and level-one bytes, as they are on
/// disk, from rank 0 (`raw` is `None` elsewhere) and parse them on every
/// rank with the format's own reader.
fn share_header(comm: &Communicator, raw: Option<Vec<u8>>) -> CommResult<SgmyHeader> {
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
/// all-reduce before any rank waits for site records. A record that
/// fails the decoder's checks is an error on every rank too: the owners
/// agree on their decoding in a second all-reduce, which also ends the
/// read. The rank that hit the fault gets a [`CommError::Decode`] naming
/// it, the others a `Decode` counting the failed ranks.
pub fn read_distributed(
    path: &Path,
    comm: &Communicator,
    n_readers: usize,
) -> CommResult<DistributedGeometry> {
    let p = comm.size();
    let n_readers = n_readers.clamp(1, p);

    // Rank 0 reads header + level one, broadcasts both; on a file error
    // it broadcasts no bytes, which every rank fails to parse.
    let level_one = comm.is_master().then(|| -> std::io::Result<Vec<u8>> {
        let mut f = File::open(path)?;
        let h = read_header(&mut BufReader::new(&f))?;
        let mut raw = vec![0u8; h.data_offset as usize];
        f.rewind()?;
        f.read_exact(&mut raw)?;
        Ok(raw)
    });
    let mut failed = None;
    let raw = level_one.map(|r| {
        r.unwrap_or_else(|e| {
            failed = Some(e);
            Vec::new()
        })
    });
    let header = share_header(comm, raw);
    if let Some(e) = failed {
        return Err(file_error(path, e));
    }
    let header = header?;

    let block_owner = plan_block_owners(&header.fluid_per_block, p);
    let reader_ranges = plan_reader_ranges(&header.fluid_per_block, n_readers);

    // Phase 2: each reader reads every owner's run of its slice, all
    // ranks agree that every read succeeded, then the readers forward
    // the runs as the file holds them.
    let rank = comm.rank();
    let plan: Vec<_> = batches(&header, &block_owner, &reader_ranges).collect();
    let mine: Vec<_> = plan.iter().filter(|b| b.0 == rank).collect();
    let read = if mine.is_empty() {
        Ok(Vec::new())
    } else {
        File::open(path)
            .and_then(|mut f| {
                mine.iter()
                    .map(|(_, owner, blocks)| {
                        Ok((*owner, read_batch(&header, &mut f, blocks.clone())?))
                    })
                    .collect::<std::io::Result<Vec<_>>>()
            })
            .map_err(|e| file_error(path, e))
    };
    let failed = comm.all_reduce_u64(u64::from(read.is_err()), |a, b| a + b)?;
    let outgoing = match read {
        Ok(_) if failed > 0 => {
            return Err(CommError::Decode {
                reason: format!("geometry read failed on {failed} other rank(s)"),
            })
        }
        read => read?,
    };
    let mut file_bytes_read = 0;
    for (owner, batch) in outgoing {
        file_bytes_read += (batch.len() - BATCH_HEADER) as u64;
        comm.send(owner, T_SITES, batch)?;
    }

    // Phase 3: every rank decodes the runs it owns, reader by reader;
    // one all-reduce then agrees on whether every batch decoded (and
    // makes the read collective: nobody proceeds until all data
    // arrived, as in HemeLB's synchronous initialisation).
    let mut my_sites = Vec::new();
    let mut bad = None;
    for (reader, _, blocks) in plan.iter().filter(|b| b.1 == rank) {
        let batch = comm.recv(*reader, T_SITES)?;
        if bad.is_none() {
            bad = decode_batch(&header, blocks, &batch, &mut my_sites).err();
        }
    }
    let failed = comm.all_reduce_u64(u64::from(bad.is_some()), |a, b| a + b)?;
    if let Some(e) = bad {
        return Err(e);
    }
    if failed > 0 {
        return Err(CommError::Decode {
            reason: format!("geometry site records failed to decode on {failed} other rank(s)"),
        });
    }
    let my_sites = sort_by_position(my_sites, header.shape);

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

    /// `geo` as a file of its own (`tag`): tests run on parallel threads
    /// and each removes its file when done.
    fn write_file(geo: &crate::lattice::SparseGeometry, tag: &str) -> std::path::PathBuf {
        let mut buf = Vec::new();
        write_sgmy(geo, 8, &mut buf).unwrap();
        let path = std::env::temp_dir().join(format!(
            "hemelb_distio_test_{}_{tag}.sgmy",
            std::process::id()
        ));
        std::fs::write(&path, &buf).unwrap();
        path
    }

    fn write_demo_file(tag: &str) -> std::path::PathBuf {
        write_file(&VesselBuilder::aneurysm(24.0, 5.0, 6.0).voxelise(1.0), tag)
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
    fn fewer_readers_means_less_file_io_but_more_forwarding() {
        let path = write_demo_file("readers");
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

    /// What a rank must hold after a distributed read of `buf` over
    /// `p` ranks: the serial decode of the whole level two, the records
    /// of that rank's blocks, sorted by position.
    fn serial_decode_by_owner(buf: &[u8], p: usize) -> Vec<Vec<SiteRecord>> {
        use crate::format::read_block_sites;
        let mut c = std::io::Cursor::new(buf);
        let header = read_header(&mut c).unwrap();
        let all = read_block_sites(&header, &mut c, 0..header.fluid_per_block.len()).unwrap();
        let owner = plan_block_owners(&header.fluid_per_block, p);
        let bs = header.block_size as u32;
        let [_, by, bz] = header.blocks();
        let mut out = vec![Vec::new(); p];
        for s in all {
            let [x, y, z] = s.position.map(|c| (c / bs) as usize);
            out[owner[(x * by + y) * bz + z]].push(s);
        }
        for v in &mut out {
            v.sort_unstable_by_key(|s| s.position);
        }
        out
    }

    fn assert_reads_match_serial_decode(geo: &crate::lattice::SparseGeometry, tag: &str) {
        let path = write_file(geo, tag);
        let buf = std::fs::read(&path).unwrap();
        for (p, readers) in [(1, 1), (2, 1), (4, 1), (4, 2), (4, 4), (6, 3), (8, 5)] {
            let want = serial_decode_by_owner(&buf, p);
            let got = hemelb_parallel::run_spmd(p, |comm| {
                read_distributed(&path, comm, readers).unwrap().my_sites
            });
            assert!(got == want, "p={p} readers={readers}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn distributed_read_is_the_serial_decode_split_by_owner() {
        let geo = VesselBuilder::aneurysm(24.0, 5.0, 6.0).voxelise(1.0);
        assert_reads_match_serial_decode(&geo, "serial_decode");
    }

    /// The Medium aneurysm of the `prep_cold` workload (~138k sites).
    #[test]
    #[ignore = "Medium; run in release"]
    fn sgmy_medium_distributed_read_is_the_serial_decode_split_by_owner() {
        let geo = VesselBuilder::aneurysm(28.0, 4.0, 6.0).voxelise(0.25);
        assert_reads_match_serial_decode(&geo, "serial_decode_medium");
    }

    /// A forwarded batch under every truncation and every single-bit
    /// flip: a `Decode` error or the records the file reader decodes
    /// from the same level-two bytes, never a panic. A flip in the
    /// batch header is always an error (the owner knows the run it
    /// awaits).
    #[test]
    fn forwarded_batch_survives_every_truncation_and_bit_flip() {
        use crate::format::read_block_sites;
        let geo = VesselBuilder::straight_tube(10.0, 2.0).voxelise(1.0);
        let mut file = Vec::new();
        write_sgmy(&geo, 4, &mut file).unwrap();
        let header = read_header(&mut std::io::Cursor::new(&file)).unwrap();
        let blocks = header.fluid_per_block.len();
        let run = 1..blocks - 1;
        let at = header.block_offset(run.start) as usize..header.block_offset(run.end) as usize;
        let mut valid = Vec::new();
        valid.extend_from_slice(&(run.start as u64).to_le_bytes());
        valid.extend_from_slice(&(run.end as u64).to_le_bytes());
        valid.extend_from_slice(&file[at.clone()]);
        assert!(at.len() > 300, "{} bytes of records", at.len());

        let check = |batch: &[u8]| {
            let mut got = Vec::new();
            match decode_batch(&header, &run, batch, &mut got) {
                Ok(()) => {
                    let mut on_disk = file.clone();
                    on_disk[at.clone()].copy_from_slice(&batch[BATCH_HEADER..]);
                    let mut c = std::io::Cursor::new(&on_disk);
                    assert_eq!(got, read_block_sites(&header, &mut c, run.clone()).unwrap());
                    assert!(batch[..BATCH_HEADER] == valid[..BATCH_HEADER]);
                    true
                }
                Err(CommError::Decode { .. }) => false,
                Err(e) => panic!("{e}"),
            }
        };
        assert!(check(&valid));
        for len in 0..valid.len() {
            assert!(!check(&valid[..len]), "a {len}-byte prefix decoded");
        }
        let mut rejected = 0;
        for bit in 0..valid.len() * 8 {
            let mut flipped = valid.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            rejected += usize::from(!check(&flipped));
        }
        // The header's 128 bits and every kind code's top five at least.
        assert!(
            rejected >= 128 + 5 * (at.len() / 6),
            "{rejected} flips rejected"
        );
    }

    /// A record that fails the decoder's checks is a `Decode` on every
    /// rank: the owner that decoded it names it, its peers count it.
    #[test]
    fn corrupted_record_is_a_decode_error_on_every_rank() {
        let path = write_demo_file("corrupt_record");
        let mut buf = std::fs::read(&path).unwrap();
        let header = read_header(&mut std::io::Cursor::new(&buf)).unwrap();
        // The kind byte of the first record, in a block rank 0 owns.
        buf[header.data_offset as usize + 3] = 200;
        std::fs::write(&path, &buf).unwrap();
        let got = hemelb_parallel::run_spmd(3, |comm| read_distributed(&path, comm, 2));
        std::fs::remove_file(&path).ok();
        let reason = |r: &CommResult<DistributedGeometry>| match r {
            Err(CommError::Decode { reason }) => reason.clone(),
            r => panic!("{r:?}"),
        };
        assert!(
            reason(&got[0]).contains("invalid site kind code 200"),
            "{}",
            reason(&got[0])
        );
        for r in &got[1..] {
            assert!(
                reason(r).contains("failed to decode on 1 other rank"),
                "{}",
                reason(r)
            );
        }
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
                let raw = comm.is_master().then(|| bytes.to_vec());
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

        let path = write_demo_file("truncated");
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
