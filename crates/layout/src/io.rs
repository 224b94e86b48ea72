//! Plain-text layout serialization (a readable stand-in for GDS I/O).
//!
//! Format:
//!
//! ```text
//! neurfill-layout v1
//! name <name>
//! window_um <f64>
//! file_size_mb <f64>
//! dims <layers> <rows> <cols>
//! w <density> <perimeter> <avg_width> <slack>    # L·N·M lines, flat order
//! ```
//!
//! [`write_layout_bits`]/[`read_layout_bits`] are the compact bit-exact
//! sibling (text header, raw little-endian `f64` window records) for
//! hot paths like the serve journal's write-ahead admit records.

use crate::grid::Grid;
use crate::layout::Layout;
use crate::window::WindowPattern;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;

const MAGIC: &str = "neurfill-layout v1";

/// Writes `layout` to a writer (a `&mut` reference works too).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_layout<W: Write>(layout: &Layout, mut w: W) -> io::Result<()> {
    writeln!(w, "{MAGIC}")?;
    writeln!(w, "name {}", layout.name())?;
    writeln!(w, "window_um {}", layout.window_um())?;
    writeln!(w, "file_size_mb {}", layout.file_size_mb())?;
    writeln!(w, "dims {} {} {}", layout.num_layers(), layout.rows(), layout.cols())?;
    for id in layout.window_ids() {
        let p = layout.window(id);
        writeln!(w, "w {} {} {} {}", p.density, p.perimeter, p.avg_width, p.slack)?;
    }
    Ok(())
}

/// Reads a layout written by [`write_layout`] (a `&mut` reference works
/// too).
///
/// # Errors
///
/// Returns `InvalidData` on any format violation.
pub fn read_layout<R: Read>(r: R) -> io::Result<Layout> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut lines = BufReader::new(r).lines();
    let mut next = |what: &str| -> io::Result<String> {
        lines.next().ok_or_else(|| bad(format!("unexpected end of file, expected {what}")))?
    };
    if next("magic")?.trim() != MAGIC {
        return Err(bad("not a neurfill layout file".into()));
    }
    let name =
        next("name")?.strip_prefix("name ").ok_or_else(|| bad("missing name".into()))?.to_string();
    let window_um: f64 = parse_field(&next("window_um")?, "window_um")?;
    let file_size_mb: f64 = parse_field(&next("file_size_mb")?, "file_size_mb")?;
    let dims_line = next("dims")?;
    let dims: Vec<usize> = dims_line
        .strip_prefix("dims ")
        .ok_or_else(|| bad(format!("bad dims line {dims_line:?}")))?
        .split_whitespace()
        .map(|t| t.parse().map_err(|e| bad(format!("bad dim {t:?}: {e}"))))
        .collect::<io::Result<_>>()?;
    let [layers, rows, cols] = dims[..] else {
        return Err(bad(format!("dims needs 3 values, got {dims:?}")));
    };
    if layers == 0 || rows == 0 || cols == 0 {
        return Err(bad("dims must be positive".into()));
    }
    let mut grids = Vec::with_capacity(layers);
    for _ in 0..layers {
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            let line = next("window")?;
            let rest =
                line.strip_prefix("w ").ok_or_else(|| bad(format!("bad window line {line:?}")))?;
            let vals: Vec<f64> = rest
                .split_whitespace()
                .map(|t| t.parse().map_err(|e| bad(format!("bad value {t:?}: {e}"))))
                .collect::<io::Result<_>>()?;
            let [density, perimeter, avg_width, slack] = vals[..] else {
                return Err(bad(format!("window needs 4 values: {line:?}")));
            };
            data.push(WindowPattern { density, perimeter, avg_width, slack });
        }
        grids.push(Grid::from_vec(rows, cols, data));
    }
    Ok(Layout::new(name, window_um, grids, file_size_mb))
}

const BITS_MAGIC: &str = "neurfill-layout-bits v1";

/// Upper bound on `layers * rows * cols` accepted by
/// [`read_layout_bits`] — rejects corrupt headers before they turn into
/// multi-gigabyte allocations.
const MAX_BITS_WINDOWS: usize = 1 << 28;

/// Writes `layout` in the compact bit-exact encoding: the same header
/// fields as [`write_layout`] (scalars as `f64::to_bits` hex), then one
/// 32-byte little-endian record per window (density, perimeter,
/// avg_width, slack).
///
/// Round-trips every bit pattern and is an order of magnitude cheaper
/// to produce than the text form — the serve journal's admit records
/// use it on the latency-critical submit path.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_layout_bits<W: Write>(layout: &Layout, mut w: W) -> io::Result<()> {
    let mut buf = Vec::with_capacity(96 + layout.name().len() + layout.num_windows() * 32);
    writeln!(buf, "{BITS_MAGIC}")?;
    writeln!(buf, "name {}", layout.name())?;
    writeln!(
        buf,
        "meta {:016x} {:016x}",
        layout.window_um().to_bits(),
        layout.file_size_mb().to_bits()
    )?;
    writeln!(buf, "dims {} {} {}", layout.num_layers(), layout.rows(), layout.cols())?;
    for id in layout.window_ids() {
        let p = layout.window(id);
        for v in [p.density, p.perimeter, p.avg_width, p.slack] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    w.write_all(&buf)
}

/// Reads a layout written by [`write_layout_bits`].
///
/// # Errors
///
/// Returns `InvalidData` on any format violation or truncation.
pub fn read_layout_bits<R: Read>(r: R) -> io::Result<Layout> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut reader = BufReader::new(r);
    let mut line = String::new();
    let mut next = |reader: &mut BufReader<R>, what: &str| -> io::Result<String> {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad(format!("unexpected end of file, expected {what}")));
        }
        Ok(line.trim_end().to_string())
    };
    if next(&mut reader, "magic")? != BITS_MAGIC {
        return Err(bad("not a neurfill layout-bits file".into()));
    }
    let name = next(&mut reader, "name")?
        .strip_prefix("name ")
        .ok_or_else(|| bad("missing name".into()))?
        .to_string();
    let meta_line = next(&mut reader, "meta")?;
    let meta: Vec<f64> = meta_line
        .strip_prefix("meta ")
        .ok_or_else(|| bad(format!("bad meta line {meta_line:?}")))?
        .split_whitespace()
        .map(|t| {
            u64::from_str_radix(t, 16)
                .map(f64::from_bits)
                .map_err(|e| bad(format!("bad meta word {t:?}: {e}")))
        })
        .collect::<io::Result<_>>()?;
    let [window_um, file_size_mb] = meta[..] else {
        return Err(bad(format!("meta needs 2 words, got {}", meta.len())));
    };
    let dims_line = next(&mut reader, "dims")?;
    let dims: Vec<usize> = dims_line
        .strip_prefix("dims ")
        .ok_or_else(|| bad(format!("bad dims line {dims_line:?}")))?
        .split_whitespace()
        .map(|t| t.parse().map_err(|e| bad(format!("bad dim {t:?}: {e}"))))
        .collect::<io::Result<_>>()?;
    let [layers, rows, cols] = dims[..] else {
        return Err(bad(format!("dims needs 3 values, got {dims:?}")));
    };
    if layers == 0 || rows == 0 || cols == 0 {
        return Err(bad("dims must be positive".into()));
    }
    let total = layers
        .checked_mul(rows)
        .and_then(|n| n.checked_mul(cols))
        .filter(|&n| n <= MAX_BITS_WINDOWS)
        .ok_or_else(|| bad(format!("implausible dims {layers}x{rows}x{cols}")))?;
    let mut body = vec![0u8; total * 32];
    reader.read_exact(&mut body).map_err(|e| bad(format!("truncated window records: {e}")))?;
    let mut words = body.chunks_exact(8).map(|c| {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(c);
        f64::from_le_bytes(raw)
    });
    let mut grids = Vec::with_capacity(layers);
    for _ in 0..layers {
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            let (Some(density), Some(perimeter), Some(avg_width), Some(slack)) =
                (words.next(), words.next(), words.next(), words.next())
            else {
                unreachable!("body holds exactly total * 4 words")
            };
            data.push(WindowPattern { density, perimeter, avg_width, slack });
        }
        grids.push(Grid::from_vec(rows, cols, data));
    }
    Ok(Layout::new(name, window_um, grids, file_size_mb))
}

fn parse_field<T: std::str::FromStr>(line: &str, key: &str) -> io::Result<T>
where
    T::Err: std::fmt::Display,
{
    line.strip_prefix(key)
        .map(str::trim)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, format!("missing {key}")))?
        .parse()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad {key}: {e}")))
}

const PLAN_MAGIC: &str = "neurfill-plan v1";

/// Writes a fill plan (the synthesis artifact) to a writer, tagged with
/// the layout dimensions it belongs to.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_plan<W: Write>(layout: &Layout, plan: &crate::FillPlan, mut w: W) -> io::Result<()> {
    writeln!(w, "{PLAN_MAGIC}")?;
    writeln!(w, "dims {} {} {}", layout.num_layers(), layout.rows(), layout.cols())?;
    for x in plan.as_slice() {
        writeln!(w, "{x}")?;
    }
    Ok(())
}

/// Reads a fill plan written by [`write_plan`], validating it against
/// `layout`'s dimensions.
///
/// # Errors
///
/// Returns `InvalidData` on format violations or dimension mismatch.
pub fn read_plan<R: Read>(layout: &Layout, r: R) -> io::Result<crate::FillPlan> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut lines = BufReader::new(r).lines();
    let magic = lines.next().ok_or_else(|| bad("empty plan file".into()))??;
    if magic.trim() != PLAN_MAGIC {
        return Err(bad("not a neurfill plan file".into()));
    }
    let dims_line = lines.next().ok_or_else(|| bad("missing dims".into()))??;
    let dims: Vec<usize> = dims_line
        .strip_prefix("dims ")
        .ok_or_else(|| bad(format!("bad dims line {dims_line:?}")))?
        .split_whitespace()
        .map(|t| t.parse().map_err(|e| bad(format!("bad dim {t:?}: {e}"))))
        .collect::<io::Result<_>>()?;
    if dims != [layout.num_layers(), layout.rows(), layout.cols()] {
        return Err(bad(format!(
            "plan dims {dims:?} do not match layout {}x{}x{}",
            layout.num_layers(),
            layout.rows(),
            layout.cols()
        )));
    }
    let mut amounts = Vec::with_capacity(layout.num_windows());
    for _ in 0..layout.num_windows() {
        let line = lines.next().ok_or_else(|| bad("truncated plan".into()))??;
        amounts.push(line.trim().parse().map_err(|e| bad(format!("bad amount {line:?}: {e}")))?);
    }
    Ok(crate::FillPlan::from_vec(layout, amounts))
}

/// Saves a layout to a file path.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn save_to_file(layout: &Layout, path: impl AsRef<Path>) -> io::Result<()> {
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    write_layout(layout, &mut w)?;
    // Dropping a `BufWriter` would discard the error of its final flush.
    w.flush()
}

/// Loads a layout from a file path.
///
/// # Errors
///
/// Propagates file-system and format errors.
pub fn load_from_file(path: impl AsRef<Path>) -> io::Result<Layout> {
    read_layout(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{DesignKind, DesignSpec};

    #[cfg(target_os = "linux")]
    #[test]
    fn save_to_file_reports_the_final_flush_error() {
        let l = DesignSpec::new(DesignKind::RiscV, 4, 4, 1).generate();
        let mut buf = Vec::new();
        write_layout(&l, &mut buf).unwrap();
        assert!(buf.len() < 8 * 1024, "payload must fit the write buffer: {}", buf.len());
        assert!(save_to_file(&l, "/dev/full").is_err());
    }

    #[test]
    fn roundtrip_preserves_layout() {
        let l = DesignSpec::new(DesignKind::RiscV, 6, 7, 5).generate();
        let mut buf = Vec::new();
        write_layout(&l, &mut buf).unwrap();
        let back = read_layout(buf.as_slice()).unwrap();
        assert_eq!(l, back);
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_layout(b"hello".as_slice()).is_err());
        assert!(read_layout(b"".as_slice()).is_err());
    }

    #[test]
    fn plan_roundtrip_and_validation() {
        let l = DesignSpec::new(DesignKind::Fpga, 4, 5, 3).generate();
        let mut plan = crate::FillPlan::zeros(&l);
        for (i, x) in plan.as_mut_slice().iter_mut().enumerate() {
            *x = i as f64 * 1.25;
        }
        let mut buf = Vec::new();
        write_plan(&l, &plan, &mut buf).unwrap();
        let back = read_plan(&l, buf.as_slice()).unwrap();
        assert_eq!(plan, back);

        // Wrong-geometry layouts are rejected.
        let other = DesignSpec::new(DesignKind::Fpga, 5, 4, 3).generate();
        assert!(read_plan(&other, buf.as_slice()).is_err());
        assert!(read_plan(&l, b"junk".as_slice()).is_err());
    }

    #[test]
    fn bits_roundtrip_is_bit_exact() {
        let mut l = DesignSpec::new(DesignKind::RiscV, 6, 7, 5).generate();
        // Exercise bit patterns plain-text formatting struggles with.
        l.layer_mut(0).get_mut(0, 0).density = f64::MIN_POSITIVE / 4.0; // subnormal
        l.layer_mut(0).get_mut(0, 1).perimeter = -0.0;
        l.layer_mut(0).get_mut(0, 2).avg_width = 1.0 / 3.0;
        let mut buf = Vec::new();
        write_layout_bits(&l, &mut buf).unwrap();
        let back = read_layout_bits(buf.as_slice()).unwrap();
        assert_eq!(l, back);
        assert_eq!(back.window(back.window_id(1)).perimeter.to_bits(), (-0.0f64).to_bits());
        let mut again = Vec::new();
        write_layout_bits(&back, &mut again).unwrap();
        assert_eq!(buf, again, "bits persistence must be a fixed point");
    }

    #[test]
    fn bits_rejects_garbage_truncation_and_huge_dims() {
        assert!(read_layout_bits(b"hello".as_slice()).is_err());
        assert!(read_layout_bits(b"".as_slice()).is_err());
        let l = DesignSpec::new(DesignKind::CmpTest, 4, 4, 0).generate();
        let mut buf = Vec::new();
        write_layout_bits(&l, &mut buf).unwrap();
        for cut in [3, 40, buf.len() / 2, buf.len() - 5] {
            assert!(read_layout_bits(&buf[..cut]).is_err(), "cut at {cut}");
        }
        let huge = b"neurfill-layout-bits v1\nname x\nmeta 0 0\ndims 99999 99999 99999\n";
        assert!(read_layout_bits(huge.as_slice()).is_err(), "implausible dims must not allocate");
    }

    #[test]
    fn rejects_truncated_file() {
        let l = DesignSpec::new(DesignKind::CmpTest, 4, 4, 0).generate();
        let mut buf = Vec::new();
        write_layout(&l, &mut buf).unwrap();
        let cut = &buf[..buf.len() / 2];
        assert!(read_layout(cut).is_err());
    }
}
