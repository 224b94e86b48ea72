//! Persistence of a trained CMP neural network: UNet weights plus the
//! height normalization and extraction configuration it was trained with,
//! in one self-contained text bundle.
//!
//! A surrogate is only meaningful together with its normalization
//! constants — loading weights with a different [`HeightNorm`] silently
//! mis-scales every prediction — so the bundle keeps them inseparable.

use crate::cmp_nn::{CmpNeuralNetwork, CmpNnConfig, HeightNorm};
use crate::extraction::{ExtractionConfig, NUM_CHANNELS};
use neurfill_layout::DummySpec;
use neurfill_nn::{serialize, CalibrationScales, Module, UNet, UNetConfig};
use rand::SeedableRng;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;

const MAGIC: &str = "neurfill-surrogate v1";
/// A calibration section starts on its own line with the
/// [`CalibrationScales`] magic; weight lines are 8-hex-digit values and
/// `param/buffer` headers, so the marker cannot occur inside the weights.
const CALIBRATION_MARKER: &str = "\nneurfill-calibration v1\n";

/// Writes a trained network bundle to `w`.
///
/// A `&mut` reference can be passed for `w` (see `std::io::Write`).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn save_network<W: Write>(network: &CmpNeuralNetwork, mut w: W) -> io::Result<()> {
    writeln!(w, "{MAGIC}")?;
    let cfg = network.unet().config();
    writeln!(w, "unet {} {} {} {}", cfg.in_channels, cfg.out_channels, cfg.base_channels, cfg.depth)?;
    let norm = network.height_norm();
    writeln!(w, "height_norm {} {}", norm.offset_nm, norm.scale_nm)?;
    let ex = network.extraction();
    writeln!(
        w,
        "extraction {} {} {} {}",
        ex.perimeter_scale, ex.width_scale, ex.dummy.edge_um, ex.dummy.bytes_per_dummy
    )?;
    serialize::save_parameters(network.unet(), &mut w)?;
    if let Some(cal) = network.calibration() {
        cal.write_to(&mut w)?;
    }
    Ok(())
}

/// Reads a bundle written by [`save_network`].
///
/// A `&mut` reference can be passed for `r` (see `std::io::Read`).
///
/// # Errors
///
/// Returns `InvalidData` on any format violation or architecture mismatch.
pub fn load_network<R: Read>(r: R) -> io::Result<CmpNeuralNetwork> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut reader = BufReader::new(r);
    let mut line = String::new();

    let mut next_line = |reader: &mut BufReader<R>| -> io::Result<String> {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "unexpected end of bundle"));
        }
        Ok(line.trim_end().to_string())
    };

    if next_line(&mut reader)? != MAGIC {
        return Err(bad("not a neurfill surrogate bundle".into()));
    }
    let unet_line = next_line(&mut reader)?;
    let parts: Vec<usize> = unet_line
        .strip_prefix("unet ")
        .ok_or_else(|| bad(format!("bad unet line: {unet_line:?}")))?
        .split_whitespace()
        .map(|t| t.parse().map_err(|e| bad(format!("bad unet field {t:?}: {e}"))))
        .collect::<io::Result<_>>()?;
    let [in_c, out_c, base, depth] = parts[..] else {
        return Err(bad("unet line needs 4 fields".into()));
    };
    if in_c != NUM_CHANNELS {
        return Err(bad(format!(
            "bundle has {in_c} input channels; this build extracts {NUM_CHANNELS}"
        )));
    }
    let norm_line = next_line(&mut reader)?;
    let nums: Vec<f64> = norm_line
        .strip_prefix("height_norm ")
        .ok_or_else(|| bad(format!("bad height_norm line: {norm_line:?}")))?
        .split_whitespace()
        .map(|t| t.parse().map_err(|e| bad(format!("bad norm field {t:?}: {e}"))))
        .collect::<io::Result<_>>()?;
    let [offset_nm, scale_nm] = nums[..] else {
        return Err(bad("height_norm needs 2 fields".into()));
    };
    let ex_line = next_line(&mut reader)?;
    let exs: Vec<f64> = ex_line
        .strip_prefix("extraction ")
        .ok_or_else(|| bad(format!("bad extraction line: {ex_line:?}")))?
        .split_whitespace()
        .map(|t| t.parse().map_err(|e| bad(format!("bad extraction field {t:?}: {e}"))))
        .collect::<io::Result<_>>()?;
    let [perimeter_scale, width_scale, edge_um, bytes_per_dummy] = exs[..] else {
        return Err(bad("extraction needs 4 fields".into()));
    };

    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let unet = UNet::new(
        UNetConfig { in_channels: in_c, out_channels: out_c, base_channels: base, depth },
        &mut rng,
    );
    // The weight parser buffers internally, so the remainder of the bundle
    // — weights plus an optional calibration section — is read whole and
    // split at the calibration magic. Unknown trailing sections after the
    // calibration block are ignored by its parser (forward compatibility).
    let mut rest = String::new();
    reader.read_to_string(&mut rest)?;
    let (weights, calibration_text) = match rest.find(CALIBRATION_MARKER) {
        Some(pos) => {
            let (w, c) = rest.split_at(pos + 1);
            (w, Some(c))
        }
        None => (rest.as_str(), None),
    };
    serialize::load_parameters(&unet, weights.as_bytes())?;
    unet.set_training(false);
    let network = CmpNeuralNetwork::new(
        unet,
        HeightNorm { offset_nm, scale_nm },
        ExtractionConfig { perimeter_scale, width_scale, dummy: DummySpec { edge_um, bytes_per_dummy } },
        CmpNnConfig::default(),
    );
    match calibration_text {
        Some(text) => Ok(network.with_calibration(CalibrationScales::parse(text)?)),
        None => Ok(network),
    }
}

/// Saves a network bundle to a file path.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn save_to_file(network: &CmpNeuralNetwork, path: impl AsRef<Path>) -> io::Result<()> {
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    save_network(network, &mut w)?;
    // Dropping a `BufWriter` would discard the error of its final flush.
    w.flush()
}

/// Loads a network bundle from a file path.
///
/// # Errors
///
/// Propagates file-system and format errors.
pub fn load_from_file(path: impl AsRef<Path>) -> io::Result<CmpNeuralNetwork> {
    load_network(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurfill_layout::{DesignKind, DesignSpec};

    fn network() -> CmpNeuralNetwork {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let unet = UNet::new(
            UNetConfig { in_channels: NUM_CHANNELS, out_channels: 1, base_channels: 4, depth: 2 },
            &mut rng,
        );
        CmpNeuralNetwork::new(
            unet,
            HeightNorm { offset_nm: 123.0, scale_nm: 4.5 },
            ExtractionConfig { perimeter_scale: 77_000.0, ..ExtractionConfig::default() },
            CmpNnConfig::default(),
        )
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn save_to_file_reports_the_final_flush_error() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let unet = UNet::new(
            UNetConfig { in_channels: NUM_CHANNELS, out_channels: 1, base_channels: 1, depth: 1 },
            &mut rng,
        );
        let net = CmpNeuralNetwork::new(
            unet,
            HeightNorm::default(),
            ExtractionConfig::default(),
            CmpNnConfig::default(),
        );
        let mut buf = Vec::new();
        save_network(&net, &mut buf).unwrap();
        assert!(buf.len() < 8 * 1024, "payload must fit the write buffer: {}", buf.len());
        assert!(save_to_file(&net, "/dev/full").is_err());
    }

    #[test]
    fn roundtrip_preserves_predictions_and_config() {
        let net = network();
        let mut buf = Vec::new();
        save_network(&net, &mut buf).unwrap();
        let back = load_network(buf.as_slice()).unwrap();
        assert_eq!(back.height_norm().offset_nm, 123.0);
        assert_eq!(back.height_norm().scale_nm, 4.5);
        assert_eq!(back.extraction().perimeter_scale, 77_000.0);

        let layout = DesignSpec::new(DesignKind::CmpTest, 8, 8, 1).generate();
        let a = net.predict_layer_heights(&layout, 0).unwrap();
        let b = back.predict_layer_heights(&layout, 0).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn save_load_save_is_byte_identical() {
        let net = network();
        let mut first = Vec::new();
        save_network(&net, &mut first).unwrap();
        let reloaded = load_network(first.as_slice()).unwrap();
        let mut second = Vec::new();
        save_network(&reloaded, &mut second).unwrap();
        assert_eq!(first, second, "persistence must be a fixed point");
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(load_network(b"nope".as_slice()).is_err());
        let net = network();
        let mut buf = Vec::new();
        save_network(&net, &mut buf).unwrap();
        let cut = &buf[..buf.len() / 3];
        assert!(load_network(cut).is_err());
    }

    #[test]
    fn corrupt_headers_error_cleanly() {
        let net = network();
        let mut buf = Vec::new();
        save_network(&net, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();

        // Wrong magic and wrong version must both be InvalidData, not a
        // panic deeper in the parameter parser.
        for bad_magic in ["other-format v1", "neurfill-surrogate v2"] {
            let corrupted = text.replacen(MAGIC, bad_magic, 1);
            let err = load_network(corrupted.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad_magic}");
        }

        // Truncation anywhere — headers or mid-weights — errors cleanly.
        for cut in [5, 30, text.len() / 2, text.len() - 3] {
            assert!(load_network(&buf[..cut]).is_err(), "cut at {cut}");
        }

        // A mangled weight value errors instead of panicking.
        let weight_line = text
            .lines()
            .find(|l| l.len() == 8 && l.bytes().all(|b| b.is_ascii_hexdigit()))
            .expect("bundle contains hex weight lines");
        let mangled = text.replacen(weight_line, "zzzzzzzz", 1);
        assert!(load_network(mangled.as_bytes()).is_err());
    }

    fn calibrated_network() -> CmpNeuralNetwork {
        // depth 2 → 4·2+3 = 11 conv inputs, one scale each.
        let scales: Vec<f32> = (0..11).map(|i| 0.01 * (i + 1) as f32).collect();
        network().with_calibration(CalibrationScales::new(scales))
    }

    #[test]
    fn calibrated_save_load_save_is_byte_identical() {
        let net = calibrated_network();
        let mut first = Vec::new();
        save_network(&net, &mut first).unwrap();
        let reloaded = load_network(first.as_slice()).unwrap();
        let back = reloaded.calibration().expect("scales survive the roundtrip");
        assert_eq!(back.scales(), net.calibration().unwrap().scales());
        let mut second = Vec::new();
        save_network(&reloaded, &mut second).unwrap();
        assert_eq!(first, second, "calibrated persistence must be a fixed point");
    }

    #[test]
    fn bundles_without_scales_still_load() {
        // The pre-calibration format is a strict prefix of the new one:
        // bundles written before this section existed keep loading, with no
        // scales attached.
        let net = network();
        let mut buf = Vec::new();
        save_network(&net, &mut buf).unwrap();
        let back = load_network(buf.as_slice()).unwrap();
        assert!(back.calibration().is_none());
    }

    #[test]
    fn unknown_trailing_section_is_ignored() {
        let net = calibrated_network();
        let mut buf = Vec::new();
        save_network(&net, &mut buf).unwrap();
        buf.extend_from_slice(b"neurfill-future-section v9\nopaque payload\n");
        let back = load_network(buf.as_slice()).unwrap();
        assert_eq!(back.calibration().unwrap().scales(), net.calibration().unwrap().scales());
    }

    #[test]
    fn corrupt_calibration_is_rejected_cleanly() {
        let net = calibrated_network();
        let mut buf = Vec::new();
        save_network(&net, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();

        // A flipped checksum must be InvalidData, not a silent mis-scale.
        let pos = text.rfind("checksum ").expect("calibration carries a checksum");
        let digit = text.as_bytes()[pos + "checksum ".len()];
        let flipped = if digit == b'0' { "1" } else { "0" };
        let mut mangled = text.clone();
        mangled.replace_range(pos + "checksum ".len()..pos + "checksum ".len() + 1, flipped);
        let err = load_network(mangled.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Truncation inside the calibration section errors too.
        let cut = text.len() - 4;
        assert!(load_network(&text.as_bytes()[..cut]).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let net = network();
        let path = std::env::temp_dir().join("neurfill_persist_test.bundle");
        save_to_file(&net, &path).unwrap();
        let back = load_from_file(&path).unwrap();
        assert_eq!(back.unet().num_parameters(), net.unet().num_parameters());
        let _ = std::fs::remove_file(&path);
    }
}
