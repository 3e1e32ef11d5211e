//! The `.sgmy` two-level sparse geometry file format.
//!
//! Our analogue of HemeLB's `.gmy`: a header, then **level one** — the
//! fluid-site count of every block (coarse information sufficient for an
//! initial approximate domain decomposition without touching site data) —
//! then **level two** — fixed-width per-site records grouped by block, so
//! a reader can seek directly to any block range. This is the property
//! the distributed loader ([`crate::distio`]) exploits: each *reading
//! core* reads only its slice of level two (§IV-B: "a subset of the cores
//! then read the detailed geometry data and distribute").
//!
//! ```text
//! magic "SGMY" | version u32 | shape 3×u64 | block_size u64
//! fluid_total u64 | iolet count u64 | iolets…
//! level 1: block count u64 | fluid_per_block u32 × blocks
//! level 2: per non-empty block, in block order:
//!          site record × count  (local x,y,z u8 | kind u8 | iolet id u16)
//! ```
//!
//! All integers little-endian. Site records are 6 bytes, so the byte
//! offset of any block's records follows from the level-one table alone.

use crate::lattice::{IoLet, IoLetKind, SiteKind, SparseGeometry, NOT_FLUID};
use crate::vec3::Vec3;
use std::io::{self, Read, Seek, SeekFrom, Write};

/// File magic.
pub const MAGIC: &[u8; 4] = b"SGMY";
/// Format version.
pub const VERSION: u32 = 1;
/// Bytes per level-two site record.
pub const SITE_RECORD_BYTES: u64 = 6;

/// Parsed header plus the level-one table.
#[derive(Debug, Clone)]
pub struct SgmyHeader {
    /// Lattice bounding-box shape.
    pub shape: [usize; 3],
    /// Block edge length.
    pub block_size: usize,
    /// Total fluid sites in the file.
    pub fluid_total: u64,
    /// Open boundaries.
    pub iolets: Vec<IoLet>,
    /// Level one: fluid sites per block, x-major block order.
    pub fluid_per_block: Vec<u32>,
    /// Byte offset in the file where level two begins.
    pub data_offset: u64,
}

impl SgmyHeader {
    /// Blocks per axis.
    pub fn blocks(&self) -> [usize; 3] {
        [
            self.shape[0].div_ceil(self.block_size),
            self.shape[1].div_ceil(self.block_size),
            self.shape[2].div_ceil(self.block_size),
        ]
    }

    /// Byte offset of block `b`'s level-two records.
    pub fn block_offset(&self, b: usize) -> u64 {
        let before: u64 = self.fluid_per_block[..b].iter().map(|&c| c as u64).sum();
        self.data_offset + before * SITE_RECORD_BYTES
    }

    /// Lattice coordinates of the minimum corner of block `b`.
    pub fn block_origin(&self, b: usize) -> [u32; 3] {
        let blocks = self.blocks();
        let bz = b % blocks[2];
        let by = (b / blocks[2]) % blocks[1];
        let bx = b / (blocks[2] * blocks[1]);
        [
            (bx * self.block_size) as u32,
            (by * self.block_size) as u32,
            (bz * self.block_size) as u32,
        ]
    }
}

fn put_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn put_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn put_f64(w: &mut impl Write, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn get_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}
fn get_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}
fn get_f64(r: &mut impl Read) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Serialise a geometry in `.sgmy` form.
///
/// # Errors
/// Propagates I/O errors from `w`. Panics if `block_size` is 0 or larger
/// than 255 (local offsets are stored as bytes).
pub fn write_sgmy(geo: &SparseGeometry, block_size: usize, w: &mut impl Write) -> io::Result<()> {
    assert!(
        (1..=255).contains(&block_size),
        "block size must fit in a byte"
    );
    let (fluid_per_block, level_two) = levels(geo, block_size);
    let shape = geo.shape();

    w.write_all(MAGIC)?;
    put_u32(w, VERSION)?;
    for s in shape {
        put_u64(w, s as u64)?;
    }
    put_u64(w, block_size as u64)?;
    put_u64(w, geo.fluid_count() as u64)?;
    put_u64(w, geo.iolets().len() as u64)?;
    for io_ in geo.iolets() {
        w.write_all(&[match io_.kind {
            IoLetKind::Inlet => 0u8,
            IoLetKind::Outlet => 1u8,
        }])?;
        for v in [io_.centre, io_.normal] {
            put_f64(w, v.x)?;
            put_f64(w, v.y)?;
            put_f64(w, v.z)?;
        }
        put_f64(w, io_.radius)?;
    }

    // Level one.
    put_u64(w, fluid_per_block.len() as u64)?;
    for &c in &fluid_per_block {
        put_u32(w, c)?;
    }

    w.write_all(&level_two)
}

/// Level one and level two of `geo` in `block_size`-cubed blocks: every
/// block's fluid count, and every site's record at its block's running
/// offset, so blocks lie in block order and a block's sites in storage
/// order. Blocks are found through per-axis tables of (block
/// coordinate, offset in the block), so no site divides.
fn levels(geo: &SparseGeometry, block_size: usize) -> (Vec<u32>, Vec<u8>) {
    const REC: usize = SITE_RECORD_BYTES as usize;
    let shape = geo.shape();
    let blocks = shape.map(|n| n.div_ceil(block_size));
    let axis = |n: usize| -> Vec<(usize, u8)> {
        (0..n)
            .map(|c| (c / block_size, (c % block_size) as u8))
            .collect()
    };
    let [tx, ty, tz] = shape.map(axis);
    let at = |[x, y, z]: [u32; 3]| {
        let ((bx, lx), (by, ly), (bz, lz)) = (tx[x as usize], ty[y as usize], tz[z as usize]);
        ((bx * blocks[1] + by) * blocks[2] + bz, [lx, ly, lz])
    };
    let mut fluid_per_block = vec![0u32; blocks.iter().product()];
    for &p in geo.positions() {
        fluid_per_block[at(p).0] += 1;
    }
    let mut next = Vec::with_capacity(fluid_per_block.len());
    let mut end = 0usize;
    for &c in &fluid_per_block {
        next.push(end);
        end += c as usize * REC;
    }
    let mut out = vec![0u8; end];
    for (i, &p) in geo.positions().iter().enumerate() {
        let (b, [lx, ly, lz]) = at(p);
        let (code, id) = geo.kind(i as u32).to_code();
        let [id0, id1] = id.to_le_bytes();
        out[next[b]..next[b] + REC].copy_from_slice(&[lx, ly, lz, code, id0, id1]);
        next[b] += REC;
    }
    (fluid_per_block, out)
}

/// Read the header and level-one table (cheap: no site data touched).
///
/// No allocation is sized by a header field before the bytes that back
/// it have been read: the iolet list grows as records arrive and the
/// level-one table is read through a length-limited reader, so a header
/// whose shape and block count merely agree cannot ask for more memory
/// than the stream holds. A level-one entry larger than a block has
/// cells is rejected here, before anything is sized by it.
pub fn read_header(r: &mut impl Read) -> io::Result<SgmyHeader> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("not an SGMY file (bad magic)"));
    }
    let version = get_u32(r)?;
    if version != VERSION {
        return Err(bad(format!("unsupported SGMY version {version}")));
    }
    let shape = [
        get_u64(r)? as usize,
        get_u64(r)? as usize,
        get_u64(r)? as usize,
    ];
    let block_size = get_u64(r)? as usize;
    if block_size == 0 || block_size > 255 {
        return Err(bad(format!("invalid block size {block_size}")));
    }
    let fluid_total = get_u64(r)?;
    let n_iolets = get_u64(r)?;
    if n_iolets > 1_000_000 {
        return Err(bad(format!("implausible iolet count {n_iolets}")));
    }
    let mut iolets = Vec::new();
    for _ in 0..n_iolets {
        let mut kind = [0u8; 1];
        r.read_exact(&mut kind)?;
        let kind = match kind[0] {
            0 => IoLetKind::Inlet,
            1 => IoLetKind::Outlet,
            k => return Err(bad(format!("invalid iolet kind {k}"))),
        };
        let centre = Vec3::new(get_f64(r)?, get_f64(r)?, get_f64(r)?);
        let normal = Vec3::new(get_f64(r)?, get_f64(r)?, get_f64(r)?);
        let radius = get_f64(r)?;
        iolets.push(IoLet {
            kind,
            centre,
            normal,
            radius,
        });
    }
    let block_count = get_u64(r)? as usize;
    let expected_blocks = shape
        .iter()
        .try_fold(1usize, |n, s| n.checked_mul(s.div_ceil(block_size)));
    if expected_blocks != Some(block_count) {
        return Err(bad(format!(
            "block count {block_count} does not match shape {shape:?}"
        )));
    }
    let table_bytes = (block_count as u64)
        .checked_mul(4)
        .ok_or_else(|| bad("level-one table size overflows"))?;
    let mut table = Vec::new();
    r.take(table_bytes).read_to_end(&mut table)?;
    if table.len() as u64 != table_bytes {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    let fluid_per_block: Vec<u32> = table
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
        .collect();
    let block_cells = (block_size * block_size * block_size) as u32;
    if let Some(b) = fluid_per_block.iter().position(|&c| c > block_cells) {
        return Err(bad(format!(
            "block {b} claims {} fluid sites, a {block_size}^3 block holds {block_cells}",
            fluid_per_block[b]
        )));
    }
    let sum: u64 = fluid_per_block.iter().map(|&c| c as u64).sum();
    if sum != fluid_total {
        return Err(bad(format!(
            "level-one total {sum} disagrees with header fluid count {fluid_total}"
        )));
    }
    // Header size: fixed part + iolets + level-1 table.
    let data_offset = 4 + 4 + 3 * 8 + 8 + 8 + 8 + n_iolets * (1 + 7 * 8) + 8 + table_bytes;
    Ok(SgmyHeader {
        shape,
        block_size,
        fluid_total,
        iolets,
        fluid_per_block,
        data_offset,
    })
}

/// One decoded level-two record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteRecord {
    /// Absolute lattice position.
    pub position: [u32; 3],
    /// Site classification.
    pub kind: SiteKind,
}

/// Decode the level-two records of blocks `block_range` from a reader
/// positioned anywhere (seeks to the right offset itself). The records
/// are read through a length-limited reader, so what is allocated is
/// what the stream holds, not what level one claims; a short stream is
/// `UnexpectedEof`, and a record whose local offset leaves its block is
/// `InvalidData`.
pub fn read_block_sites<R: Read + Seek>(
    header: &SgmyHeader,
    r: &mut R,
    block_range: std::ops::Range<usize>,
) -> io::Result<Vec<SiteRecord>> {
    let start = header.block_offset(block_range.start);
    let total_sites: u64 = header.fluid_per_block[block_range.clone()]
        .iter()
        .map(|&c| c as u64)
        .sum();
    let total_bytes = total_sites
        .checked_mul(SITE_RECORD_BYTES)
        .ok_or_else(|| bad("level-two size overflows"))?;
    r.seek(SeekFrom::Start(start))?;
    let mut raw = Vec::new();
    r.take(total_bytes).read_to_end(&mut raw)?;
    if raw.len() as u64 != total_bytes {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }

    let mut out = Vec::new();
    decode_block_records(header, block_range, &raw, &mut out)?;
    Ok(out)
}

/// Decode `raw`, the level-two records of blocks `blocks` as the file
/// holds them, onto `out`. The one level-two decoder: the file reader
/// and the distributed reader's owners both call it. `raw` must hold
/// exactly the records level one gives the range, and each record is
/// checked: its offset inside its block, its kind code and its position
/// inside the lattice shape. A failed check is `InvalidData`.
pub(crate) fn decode_block_records(
    header: &SgmyHeader,
    blocks: std::ops::Range<usize>,
    raw: &[u8],
    out: &mut Vec<SiteRecord>,
) -> io::Result<()> {
    const REC: usize = SITE_RECORD_BYTES as usize;
    let counts = header
        .fluid_per_block
        .get(blocks.clone())
        .ok_or_else(|| bad(format!("block range {blocks:?} outside level one")))?;
    let sites: usize = counts.iter().map(|&c| c as usize).sum();
    if sites.checked_mul(REC) != Some(raw.len()) {
        return Err(bad(format!(
            "{} bytes of site records for {sites} sites",
            raw.len()
        )));
    }
    out.reserve(sites);
    let mut records = raw.chunks_exact(REC);
    for (b, &n) in blocks.zip(counts) {
        let origin = header.block_origin(b);
        for rec in records.by_ref().take(n as usize) {
            if rec[..3].iter().any(|&c| c as usize >= header.block_size) {
                return Err(bad(format!(
                    "site record {:?} outside its block",
                    &rec[..3]
                )));
            }
            let position = [
                origin[0] + rec[0] as u32,
                origin[1] + rec[1] as u32,
                origin[2] + rec[2] as u32,
            ];
            let kind = SiteKind::from_code(rec[3], u16::from_le_bytes([rec[4], rec[5]]))
                .ok_or_else(|| bad(format!("invalid site kind code {}", rec[3])))?;
            if position[0] as usize >= header.shape[0]
                || position[1] as usize >= header.shape[1]
                || position[2] as usize >= header.shape[2]
            {
                return Err(bad("site position outside lattice shape"));
            }
            out.push(SiteRecord { position, kind });
        }
    }
    Ok(())
}

/// Read an entire `.sgmy` stream back into a [`SparseGeometry`].
pub fn read_sgmy<R: Read + Seek>(r: &mut R) -> io::Result<SparseGeometry> {
    let header = read_header(r)?;
    let sites = read_block_sites(&header, r, 0..header.fluid_per_block.len())?;
    assemble(&header, sites)
}

/// Build a [`SparseGeometry`] from a header plus a full set of records
/// (in any order).
///
/// # Errors
/// A shape whose index grid cannot be addressed or allocated is an
/// error, not a capacity panic; two records at one position are an
/// error, not a site the index grid cannot find.
pub fn assemble(header: &SgmyHeader, sites: Vec<SiteRecord>) -> io::Result<SparseGeometry> {
    let shape = header.shape;
    let cells = shape
        .iter()
        .try_fold(1usize, |n, &s| n.checked_mul(s))
        .ok_or_else(|| bad(format!("lattice shape {shape:?} overflows")))?;
    let mut index = Vec::new();
    index
        .try_reserve_exact(cells)
        .map_err(|e| io::Error::new(io::ErrorKind::OutOfMemory, e))?;
    index.resize(cells, NOT_FLUID);
    let mut positions = Vec::with_capacity(sites.len());
    let mut kinds = Vec::with_capacity(sites.len());
    for s in sites {
        let off = (s.position[0] as usize * shape[1] + s.position[1] as usize) * shape[2]
            + s.position[2] as usize;
        if index[off] != NOT_FLUID {
            return Err(bad(format!("two site records at {:?}", s.position)));
        }
        index[off] = positions.len() as u32;
        positions.push(s.position);
        kinds.push(s.kind);
    }
    Ok(SparseGeometry::from_parts(
        shape,
        index,
        positions,
        kinds,
        header.iolets.clone(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::BlockDecomposition;
    use crate::vessels::VesselBuilder;
    use std::io::Cursor;

    fn round_trip(geo: &SparseGeometry, block_size: usize) -> SparseGeometry {
        let mut buf = Vec::new();
        write_sgmy(geo, block_size, &mut buf).unwrap();
        read_sgmy(&mut Cursor::new(buf)).unwrap()
    }

    /// Level two as the writer once made it, block by block from
    /// per-block site lists, a record in three writes: the oracle of
    /// [`levels`].
    fn level_two_by_block_lists(geo: &SparseGeometry, block_size: usize) -> Vec<u8> {
        let dec = BlockDecomposition::build(geo, block_size);
        let mut by_block: Vec<Vec<u32>> = vec![Vec::new(); dec.block_count()];
        for i in 0..geo.fluid_count() as u32 {
            by_block[dec.block_of(geo.position(i))].push(i);
        }
        let mut w = Vec::new();
        for sites in &by_block {
            for &i in sites {
                let [x, y, z] = geo.position(i);
                let rec = [
                    (x as usize % block_size) as u8,
                    (y as usize % block_size) as u8,
                    (z as usize % block_size) as u8,
                ];
                w.write_all(&rec).unwrap();
                let (code, id) = geo.kind(i).to_code();
                w.write_all(&[code]).unwrap();
                w.write_all(&id.to_le_bytes()).unwrap();
            }
        }
        w
    }

    fn every_scene() -> Vec<(&'static str, SparseGeometry)> {
        vec![
            (
                "tube",
                VesselBuilder::straight_tube(15.0, 3.0).voxelise(1.0),
            ),
            (
                "aneurysm",
                VesselBuilder::aneurysm(24.0, 5.0, 6.0).voxelise(1.0),
            ),
            (
                "bifurcation",
                VesselBuilder::bifurcation(12.0, 10.0, 3.0, 0.5).voxelise(1.0),
            ),
            ("bend", VesselBuilder::bend(10.0, 3.0).voxelise(1.0)),
            (
                "tree",
                VesselBuilder::arterial_tree(2, 12.0, 3.0).voxelise(1.0),
            ),
        ]
    }

    #[test]
    fn levels_are_the_block_list_writers_bytes() {
        for (name, geo) in every_scene() {
            for block_size in [4, 8, 16] {
                let mut buf = Vec::new();
                write_sgmy(&geo, block_size, &mut buf).unwrap();
                let header = read_header(&mut Cursor::new(&buf)).unwrap();
                let dec = BlockDecomposition::build(&geo, block_size);
                assert_eq!(header.fluid_per_block, dec.fluid_per_block, "{name}");
                assert!(
                    buf[header.data_offset as usize..]
                        == level_two_by_block_lists(&geo, block_size)[..],
                    "{name}, block size {block_size}"
                );
            }
        }
    }

    /// The Medium aneurysm of the `prep_cold` workload (~138k sites).
    #[test]
    #[ignore = "Medium; run in release"]
    fn sgmy_medium_levels_are_the_block_list_writers_bytes() {
        let geo = VesselBuilder::aneurysm(28.0, 4.0, 6.0).voxelise(0.25);
        let mut buf = Vec::new();
        write_sgmy(&geo, 8, &mut buf).unwrap();
        let header = read_header(&mut Cursor::new(&buf)).unwrap();
        let dec = BlockDecomposition::build(&geo, 8);
        assert_eq!(header.fluid_per_block, dec.fluid_per_block);
        assert!(buf[header.data_offset as usize..] == level_two_by_block_lists(&geo, 8)[..]);
    }

    #[test]
    fn full_round_trip_preserves_geometry() {
        let geo = VesselBuilder::aneurysm(24.0, 5.0, 6.0).voxelise(1.0);
        let back = round_trip(&geo, 8);
        assert_eq!(back.shape(), geo.shape());
        assert_eq!(back.fluid_count(), geo.fluid_count());
        assert_eq!(back.iolets(), geo.iolets());
        // Site order may differ (file is block-ordered); compare as sets
        // through the index grid.
        for i in 0..geo.fluid_count() as u32 {
            let [x, y, z] = geo.position(i);
            let j = back
                .site_at(x as i64, y as i64, z as i64)
                .expect("site present after round trip");
            assert_eq!(back.kind(j), geo.kind(i));
        }
    }

    #[test]
    fn round_trip_with_odd_block_size() {
        let geo = VesselBuilder::straight_tube(15.0, 3.0).voxelise(1.0);
        let back = round_trip(&geo, 5);
        assert_eq!(back.fluid_count(), geo.fluid_count());
    }

    #[test]
    fn header_readable_without_site_data() {
        let geo = VesselBuilder::straight_tube(20.0, 4.0).voxelise(1.0);
        let mut buf = Vec::new();
        write_sgmy(&geo, 8, &mut buf).unwrap();
        let header = read_header(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(header.fluid_total, geo.fluid_count() as u64);
        assert_eq!(header.shape, geo.shape());
        assert_eq!(header.iolets.len(), 2);
        assert_eq!(
            header
                .fluid_per_block
                .iter()
                .map(|&c| c as u64)
                .sum::<u64>(),
            header.fluid_total
        );
    }

    #[test]
    fn block_offsets_address_level_two_correctly() {
        let geo = VesselBuilder::straight_tube(20.0, 4.0).voxelise(1.0);
        let mut buf = Vec::new();
        write_sgmy(&geo, 8, &mut buf).unwrap();
        let header = read_header(&mut Cursor::new(&buf)).unwrap();
        // Reading [0, n) in two halves equals reading it at once.
        let n = header.fluid_per_block.len();
        let mut c = Cursor::new(&buf);
        let all = read_block_sites(&header, &mut c, 0..n).unwrap();
        let first = read_block_sites(&header, &mut c, 0..n / 2).unwrap();
        let second = read_block_sites(&header, &mut c, n / 2..n).unwrap();
        let stitched: Vec<_> = first.into_iter().chain(second).collect();
        assert_eq!(all, stitched);
        assert_eq!(all.len(), geo.fluid_count());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        write_sgmy(
            &VesselBuilder::straight_tube(10.0, 2.0).voxelise(1.0),
            8,
            &mut buf,
        )
        .unwrap();
        buf[0] = b'X';
        assert!(read_sgmy(&mut Cursor::new(buf)).is_err());
    }

    #[test]
    fn truncated_file_rejected() {
        let mut buf = Vec::new();
        write_sgmy(
            &VesselBuilder::straight_tube(10.0, 2.0).voxelise(1.0),
            8,
            &mut buf,
        )
        .unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_sgmy(&mut Cursor::new(buf)).is_err());
    }

    /// A header whose shape and block count agree but that no stream
    /// could back: the reader must run out of bytes, not size a table
    /// from the claim (2^63 entries overflow `Vec`'s capacity, 2^60 and
    /// 2^36 ask the allocator for exbi- and gibibytes).
    #[test]
    fn hostile_header_is_an_error_not_an_allocation() {
        for log2_edge in [21u32, 20, 12] {
            let edge = 1u64 << log2_edge;
            let mut buf = Vec::new();
            buf.extend_from_slice(MAGIC);
            put_u32(&mut buf, VERSION).unwrap();
            for v in [edge, edge, edge, 1, 0, 0, edge * edge * edge] {
                put_u64(&mut buf, v).unwrap();
            }
            // A few level-one entries, then the stream ends.
            buf.extend_from_slice(&[0u8; 64]);
            let err = read_header(&mut Cursor::new(buf)).unwrap_err();
            assert!(
                matches!(
                    err.kind(),
                    io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                ),
                "edge 2^{log2_edge}: {err:?}"
            );
        }
    }

    /// A level-one entry is four bytes and used to size the level-two
    /// read: no entry may exceed its block, a table the stream does not
    /// back is a short read, and a shape nothing can index is an error.
    #[test]
    fn hostile_level_one_entry_is_an_error_not_an_allocation() {
        let header_bytes = |shape: [u64; 3], block_size: u64, per_block: &[u32]| {
            let mut buf = Vec::new();
            buf.extend_from_slice(MAGIC);
            put_u32(&mut buf, VERSION).unwrap();
            let total = per_block.iter().map(|&c| c as u64).sum();
            for v in [shape[0], shape[1], shape[2], block_size, total, 0] {
                put_u64(&mut buf, v).unwrap();
            }
            put_u64(&mut buf, per_block.len() as u64).unwrap();
            for &c in per_block {
                put_u32(&mut buf, c).unwrap();
            }
            buf
        };
        // One 8^3 block claiming 2^32 - 1 sites (a ~25 GB level two).
        let buf = header_bytes([8, 8, 8], 8, &[u32::MAX]);
        let err = read_header(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err:?}");
        // Sixteen full 255^3 blocks (1.6 GB of records) and no level two.
        let buf = header_bytes([255 * 16, 255, 255], 255, &[255 * 255 * 255; 16]);
        let err = read_sgmy(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err:?}");
        // A shape whose cell count does not fit a usize.
        let header = SgmyHeader {
            shape: [usize::MAX, 2, 2],
            block_size: 8,
            fluid_total: 0,
            iolets: vec![],
            fluid_per_block: vec![],
            data_offset: 0,
        };
        let err = assemble(&header, vec![]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err:?}");
    }

    #[test]
    fn corrupt_kind_code_rejected() {
        let geo = VesselBuilder::straight_tube(10.0, 2.0).voxelise(1.0);
        let mut buf = Vec::new();
        write_sgmy(&geo, 8, &mut buf).unwrap();
        let header = read_header(&mut Cursor::new(&buf)).unwrap();
        // Corrupt the kind byte of the first site record.
        let off = header.data_offset as usize + 3;
        buf[off] = 200;
        assert!(read_sgmy(&mut Cursor::new(buf)).is_err());
    }
}
