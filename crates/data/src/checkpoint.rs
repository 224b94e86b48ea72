//! Training checkpoints: everything needed to resume pre-training
//! *bit-exactly* — model weights, Adam moments, RNG state and the
//! epoch/shard cursor — in one self-contained text bundle.
//!
//! ```text
//! neurfill-checkpoint v1
//! epoch <next epoch to run>
//! shard_cursor <next shard index within that epoch>
//! rng <s0> <s1> <s2> <s3>          (xoshiro256** words, 16 hex digits each)
//! adam_t <bias-correction step count>
//! adam_m <param count>
//! moment 0 shape 8 4 3 3           (or `moment 0 none` before first step)
//! <one f32 per line, 8 hex digits>
//! ...
//! adam_v <param count>
//! ...
//! neurfill-weights v1              (embedded `nn::serialize` section)
//! ...
//! ```
//!
//! Every float is stored as its exact bit pattern, so
//! save → load → save is byte-identical and a resumed run walks the exact
//! gradient/shuffle trajectory of an uninterrupted one.

use neurfill_nn::{serialize, AdamState, Module};
use neurfill_tensor::NdArray;
use rand::rngs::StdRng;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;

const MAGIC: &str = "neurfill-checkpoint v1";

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Resumable training state (weights travel separately, embedded in the
/// same bundle via `nn::serialize`).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainCheckpoint {
    /// Next epoch to run (zero-based).
    pub epoch: usize,
    /// Next shard index within that epoch.
    pub shard_cursor: usize,
    /// Raw xoshiro256** state of the training RNG.
    pub rng_state: [u64; 4],
    /// Positional Adam optimizer snapshot.
    pub adam: AdamState,
}

impl TrainCheckpoint {
    /// The training RNG positioned exactly where the checkpoint was taken.
    #[must_use]
    pub fn rng(&self) -> StdRng {
        StdRng::from_state(self.rng_state)
    }
}

/// Writes a checkpoint bundle: the resumable state followed by the
/// model's weights.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn save_checkpoint<W: Write>(
    ckpt: &TrainCheckpoint,
    model: &dyn Module,
    mut w: W,
) -> io::Result<()> {
    writeln!(w, "{MAGIC}")?;
    writeln!(w, "epoch {}", ckpt.epoch)?;
    writeln!(w, "shard_cursor {}", ckpt.shard_cursor)?;
    let [s0, s1, s2, s3] = ckpt.rng_state;
    writeln!(w, "rng {s0:016x} {s1:016x} {s2:016x} {s3:016x}")?;
    writeln!(w, "adam_t {}", ckpt.adam.t)?;
    for (key, moments) in [("adam_m", &ckpt.adam.m), ("adam_v", &ckpt.adam.v)] {
        writeln!(w, "{key} {}", moments.len())?;
        for (i, moment) in moments.iter().enumerate() {
            match moment {
                None => writeln!(w, "moment {i} none")?,
                Some(arr) => {
                    let mut header = format!("moment {i} shape");
                    for d in arr.shape() {
                        let _ = write!(header, " {d}");
                    }
                    writeln!(w, "{header}")?;
                    let mut buf = String::with_capacity(arr.numel() * 9);
                    for v in arr.as_slice() {
                        let _ = writeln!(buf, "{:08x}", v.to_bits());
                    }
                    w.write_all(buf.as_bytes())?;
                }
            }
        }
    }
    serialize::save_parameters(model, w)
}

/// Reads a bundle written by [`save_checkpoint`], restoring the weights
/// into `model` and returning the resumable state.
///
/// # Errors
///
/// Returns `InvalidData` on any format violation, truncation, or
/// architecture mismatch with `model`.
pub fn load_checkpoint<R: Read>(model: &dyn Module, r: R) -> io::Result<TrainCheckpoint> {
    let mut reader = BufReader::new(r);
    let mut line = String::new();
    let mut next = |reader: &mut BufReader<R>, what: &str| -> io::Result<String> {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad(format!("checkpoint truncated before {what}")));
        }
        Ok(line.trim_end().to_string())
    };

    if next(&mut reader, "magic")? != MAGIC {
        return Err(bad("not a neurfill checkpoint"));
    }
    let scalar = |line: &str, key: &str| -> io::Result<u64> {
        line.strip_prefix(key)
            .and_then(|r| r.strip_prefix(' '))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| bad(format!("expected `{key} <n>`, got {line:?}")))
    };
    let epoch = scalar(&next(&mut reader, "epoch")?, "epoch")? as usize;
    let shard_cursor = scalar(&next(&mut reader, "shard_cursor")?, "shard_cursor")? as usize;

    let rng_line = next(&mut reader, "rng")?;
    let words: Vec<u64> = rng_line
        .strip_prefix("rng ")
        .ok_or_else(|| bad(format!("expected `rng` line, got {rng_line:?}")))?
        .split_whitespace()
        .map(|t| u64::from_str_radix(t, 16).map_err(|e| bad(format!("bad rng word {t:?}: {e}"))))
        .collect::<io::Result<_>>()?;
    let rng_state: [u64; 4] = words.try_into().map_err(|_| bad("rng line needs 4 words".to_string()))?;

    let t = u32::try_from(scalar(&next(&mut reader, "adam_t")?, "adam_t")?)
        .map_err(|e| bad(format!("adam_t out of range: {e}")))?;
    let mut sections = Vec::with_capacity(2);
    for key in ["adam_m", "adam_v"] {
        let count = scalar(&next(&mut reader, key)?, key)? as usize;
        let mut moments = Vec::with_capacity(count);
        for i in 0..count {
            moments.push(read_moment(&mut reader, &mut next, i)?);
        }
        sections.push(moments);
    }
    let (m, v) = match (sections.pop(), sections.pop()) {
        (Some(v), Some(m)) => (m, v),
        _ => unreachable!("two sections pushed"),
    };

    serialize::load_parameters(model, reader)?;
    Ok(TrainCheckpoint { epoch, shard_cursor, rng_state, adam: AdamState { t, m, v } })
}

fn read_moment<R: Read>(
    reader: &mut BufReader<R>,
    next: &mut impl FnMut(&mut BufReader<R>, &str) -> io::Result<String>,
    i: usize,
) -> io::Result<Option<NdArray>> {
    let header = next(reader, "moment header")?;
    let rest = header
        .strip_prefix(&format!("moment {i} "))
        .ok_or_else(|| bad(format!("expected `moment {i}`, got {header:?}")))?;
    if rest == "none" {
        return Ok(None);
    }
    let shape: Vec<usize> = rest
        .strip_prefix("shape")
        .ok_or_else(|| bad(format!("bad moment header {header:?}")))?
        .split_whitespace()
        .map(|t| t.parse().map_err(|e| bad(format!("bad extent {t:?}: {e}"))))
        .collect::<io::Result<_>>()?;
    let n: usize = shape.iter().product();
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        let line = next(reader, "moment value")?;
        let hex = line.trim();
        if hex.len() != 8 {
            return Err(bad(format!("bad moment value {line:?}: expected 8 hex digits")));
        }
        let bits =
            u32::from_str_radix(hex, 16).map_err(|e| bad(format!("bad moment value {line:?}: {e}")))?;
        data.push(f32::from_bits(bits));
    }
    NdArray::from_vec(data, &shape).map(Some).map_err(|e| bad(e.to_string()))
}

/// Saves a checkpoint bundle to a file path.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn save_checkpoint_file(
    ckpt: &TrainCheckpoint,
    model: &dyn Module,
    path: impl AsRef<Path>,
) -> io::Result<()> {
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    save_checkpoint(ckpt, model, &mut w)?;
    // Dropping a `BufWriter` would discard the error of its final flush.
    w.flush()
}

/// Loads a checkpoint bundle from a file path.
///
/// # Errors
///
/// Propagates file-system and format errors.
pub fn load_checkpoint_file(model: &dyn Module, path: impl AsRef<Path>) -> io::Result<TrainCheckpoint> {
    load_checkpoint(model, std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurfill_nn::{Adam, Optimizer, UNet, UNetConfig};
    use neurfill_tensor::Tensor;
    use rand::{Rng, SeedableRng};

    fn unet(seed: u64) -> UNet {
        let mut rng = StdRng::seed_from_u64(seed);
        UNet::new(UNetConfig { in_channels: 2, out_channels: 1, base_channels: 2, depth: 1 }, &mut rng)
    }

    fn stepped_checkpoint(model: &UNet) -> TrainCheckpoint {
        // Take a couple of real Adam steps so moments are populated.
        let mut opt = Adam::new(model.parameters(), 1e-3);
        for i in 0..2 {
            opt.zero_grad();
            let x = Tensor::constant(NdArray::from_fn(&[1, 2, 4, 4], |k| (k + i) as f32 * 0.1));
            let y = model.forward(&x).unwrap();
            let loss = neurfill_nn::loss::mse_loss(&y, &Tensor::constant(NdArray::zeros(&[1, 1, 4, 4])))
                .unwrap();
            loss.backward().unwrap();
            opt.step();
        }
        let mut rng = StdRng::seed_from_u64(5);
        let _: u64 = rng.gen();
        TrainCheckpoint { epoch: 3, shard_cursor: 1, rng_state: rng.state(), adam: opt.export_state() }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn save_checkpoint_file_reports_the_final_flush_error() {
        let model = neurfill_nn::layers::Linear::new(4, 4, &mut StdRng::seed_from_u64(0));
        let opt = Adam::new(model.parameters(), 1e-3);
        let rng_state = StdRng::seed_from_u64(5).state();
        let ckpt = TrainCheckpoint { epoch: 1, shard_cursor: 0, rng_state, adam: opt.export_state() };
        let mut buf = Vec::new();
        save_checkpoint(&ckpt, &model, &mut buf).unwrap();
        assert!(buf.len() < 8 * 1024, "payload must fit the write buffer: {}", buf.len());
        assert!(save_checkpoint_file(&ckpt, &model, "/dev/full").is_err());
    }

    #[test]
    fn save_load_save_is_byte_identical() {
        let model = unet(0);
        let ckpt = stepped_checkpoint(&model);
        let mut first = Vec::new();
        save_checkpoint(&ckpt, &model, &mut first).unwrap();

        let other = unet(99);
        let back = load_checkpoint(&other, first.as_slice()).unwrap();
        assert_eq!(back, ckpt);
        let mut second = Vec::new();
        save_checkpoint(&back, &other, &mut second).unwrap();
        assert_eq!(first, second, "checkpoint persistence must be a fixed point");
    }

    #[test]
    fn restored_rng_continues_the_stream() {
        let model = unet(1);
        let mut rng = StdRng::seed_from_u64(7);
        let _: u64 = rng.gen();
        let ckpt = TrainCheckpoint {
            epoch: 0,
            shard_cursor: 0,
            rng_state: rng.state(),
            adam: Adam::new(model.parameters(), 1e-3).export_state(),
        };
        let mut buf = Vec::new();
        save_checkpoint(&ckpt, &model, &mut buf).unwrap();
        let back = load_checkpoint(&unet(2), buf.as_slice()).unwrap();
        let mut resumed = back.rng();
        let expect: u64 = rng.gen();
        assert_eq!(resumed.gen::<u64>(), expect);
    }

    #[test]
    fn rejects_garbage_truncation_and_wrong_architecture() {
        let model = unet(3);
        let ckpt = stepped_checkpoint(&model);
        let mut buf = Vec::new();
        save_checkpoint(&ckpt, &model, &mut buf).unwrap();

        assert!(load_checkpoint(&model, b"nope".as_slice()).is_err(), "garbage");
        for cut in [3, 40, buf.len() / 2, buf.len() - 5] {
            assert!(load_checkpoint(&model, &buf[..cut]).is_err(), "cut at {cut}");
        }
        // A model with a different architecture must be rejected by the
        // embedded weights section.
        let mut rng = StdRng::seed_from_u64(4);
        let other = UNet::new(
            UNetConfig { in_channels: 2, out_channels: 1, base_channels: 4, depth: 1 },
            &mut rng,
        );
        assert!(load_checkpoint(&other, buf.as_slice()).is_err(), "architecture mismatch");
    }
}
