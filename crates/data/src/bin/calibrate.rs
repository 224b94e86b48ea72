//! `calibrate` — compute per-layer int8 calibration scales for a trained
//! surrogate bundle from labeled shards, and write them back into the
//! bundle so the quantized backend (`--backend quant`) can run it.
//!
//! ```text
//! calibrate --model surrogate.bundle --shards corpus/ --out calibrated.bundle
//!           [--samples N]
//! ```
//!
//! Calibration streams up to `--samples` (default 64) shard inputs through
//! the f32 network, records per-layer activation ranges, and appends the
//! resulting scales as a versioned, checksummed section of the bundle.
//! Bundles with scales still load everywhere — the `cpu` backend ignores
//! the section bit-for-bit; only `quant` requires it.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use neurfill::persist;
use neurfill_data::ShardSet;
use neurfill_tensor::NdArray;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    model: PathBuf,
    shards: PathBuf,
    out: PathBuf,
    samples: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: calibrate --model <bundle> --shards <dir> --out <bundle>\n\
         \x20               [--samples N]"
    );
    std::process::exit(2);
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("bad value {s:?} for {flag}");
        usage()
    })
}

fn parse_args() -> Args {
    let mut args =
        Args { model: PathBuf::new(), shards: PathBuf::new(), out: PathBuf::new(), samples: 64 };
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().unwrap_or_else(|| {
            eprintln!("missing value for {flag}");
            usage()
        })
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--model" => args.model = value(&mut it, "--model").into(),
            "--shards" => args.shards = value(&mut it, "--shards").into(),
            "--out" => args.out = value(&mut it, "--out").into(),
            "--samples" => args.samples = parse_num(&value(&mut it, "--samples"), "--samples"),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    if args.model.as_os_str().is_empty()
        || args.shards.as_os_str().is_empty()
        || args.out.as_os_str().is_empty()
    {
        usage();
    }
    if args.samples == 0 {
        eprintln!("--samples must be non-zero");
        usage();
    }
    args
}

fn run() -> Result<(), String> {
    let args = parse_args();

    let file = File::open(&args.model).map_err(|e| format!("{}: {e}", args.model.display()))?;
    let network = persist::load_network(BufReader::new(file))
        .map_err(|e| format!("{}: {e}", args.model.display()))?;

    let set = ShardSet::open_dir(&args.shards).map_err(|e| e.to_string())?;
    let mut inputs: Vec<NdArray> = Vec::with_capacity(args.samples.min(1024));
    for record in set.stream().take(args.samples) {
        let (input, _target) = record.map_err(|e| e.to_string())?;
        // Shards store [C, H, W] samples; calibration replays the network's
        // batched traversal, so each becomes a singleton batch.
        let &[c, h, w] = input.shape() else {
            return Err(format!("shard sample has rank {} (want [C, H, W])", input.shape().len()));
        };
        inputs.push(input.reshape(&[1, c, h, w]).map_err(|e| e.to_string())?);
    }
    println!(
        "calibrating {} over {} shard samples ({} available)",
        args.model.display(),
        inputs.len(),
        set.len()
    );

    let scales =
        neurfill_nn::calibrate(network.unet(), &inputs).map_err(|e| format!("calibration: {e}"))?;
    println!("computed {} per-layer scales", scales.len());

    let calibrated = network.with_calibration(scales);
    let out = File::create(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let mut w = BufWriter::new(out);
    persist::save_network(&calibrated, &mut w)
        .and_then(|()| w.flush())
        .map_err(|e| format!("{}: {e}", args.out.display()))?;
    println!("wrote {}", args.out.display());
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("calibrate: {e}");
            ExitCode::FAILURE
        }
    }
}
