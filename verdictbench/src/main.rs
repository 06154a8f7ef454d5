//! End-to-end and per-layer verdict benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path verdictbench/Cargo.toml -- \
//!     --workload sectionv_uncal --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` runs the workload untraced and reports the end-to-end
//! metrics; `--trace 1` runs the same inputs through a replica of the
//! engine's public calls with a timer around each call and reports the
//! per-layer metrics (see `README.md`). Every run checks its outputs;
//! the last line of standard output is one JSON object.

mod cal_line;
mod layers;
mod replica;
mod sectionv;
mod wire_scan;

use std::process::ExitCode;
use std::time::Instant;

/// Fewest timed operations per run: the p90 needs at least ten
/// samples beyond it, whatever `--seconds` says.
pub const MIN_OPS: usize = 100;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Command-line arguments of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarises (shown in the text lines only).
    pub samples: usize,
}

/// What a workload run hands back for printing.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Reasons the run is not correct (each is printed).
    pub faults: Vec<String>,
    /// Extra human-readable lines (quality counts and the like).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Counts one failed operation and keeps the first few reasons.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.faults.len() < 8 {
            self.faults.push(reason);
        }
    }
}

/// Timing samples in milliseconds.
#[derive(Clone, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Nearest-rank quantile `q` in `[0, 1]`; 0 for no samples.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }

    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(0.0, f64::max)
    }
}

/// Emits the per-verdict latency metrics every workload reports. The
/// p90 is only defined with at least ten samples beyond it.
pub fn latency_metrics(out: &mut Outcome, verdict_ms: &Samples) {
    out.metric(
        "verdict_ms_p50",
        verdict_ms.median(),
        "ms",
        verdict_ms.len(),
    );
    // host speed drift inside the window shows as uneven quarters
    let quarter = verdict_ms.len().div_ceil(4).max(1);
    let quarters: Vec<String> = verdict_ms
        .0
        .chunks(quarter)
        .map(|c| format!("{:.4}", Samples(c.to_vec()).median()))
        .collect();
    out.notes.push(format!(
        "verdict_ms_p50 by quarter of the window: {}",
        quarters.join(" ")
    ));
    if verdict_ms.len() >= MIN_OPS {
        out.metric(
            "verdict_ms_p90",
            verdict_ms.quantile(0.9),
            "ms",
            verdict_ms.len(),
        );
    } else {
        out.faults.push(format!(
            "only {} timed verdicts: the p90 needs {MIN_OPS}",
            verdict_ms.len()
        ));
    }
}

/// Runs `setup` [`SETUPS`] times, reports the median as `setup_s` and
/// returns the last set-up's product for the timed loop.
pub fn repeated_setup<T>(
    out: &mut Outcome,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut times = Samples::default();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let start = Instant::now();
        let made = setup()?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(made);
    }
    out.metric("setup_s", times.median(), "s", times.len());
    last.ok_or_else(|| "no set-up ran".to_string())
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// SplitMix64: derives independent input seeds from the workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)))
        .wrapping_add(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = match args.workload.as_str() {
        "sectionv_uncal" => sectionv::run(args)?,
        "cal_line" => cal_line::run(args)?,
        "wire_scan" => wire_scan::run(args)?,
        other => {
            return Err(format!(
                "unknown workload {other} (sectionv_uncal, cal_line, wire_scan)"
            ))
        }
    };
    if out.attempted == 0 {
        return Err("no operation ran".into());
    }
    if !args.trace {
        out.metric("peak_rss_mb", peak_rss_mb()?, "MB", 1);
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("verdictbench: {e}");
            eprintln!("usage: verdictbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let mut out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("verdictbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for m in &out.metrics {
        if !m.value.is_finite() {
            out.faults.push(format!("{} is not finite", m.name));
        }
    }
    println!(
        "workload {} seed {} trace {}: ops {} ops_failed {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        out.attempted,
        out.failed
    );
    for m in &out.metrics {
        println!(
            "  {:<28} {:>14.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for note in &out.notes {
        println!("  note: {note}");
    }
    for fault in &out.faults {
        println!("  FAILED: {fault}");
    }
    let correct = out.faults.is_empty() && out.failed == 0;
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted, out.failed
    );
    ExitCode::SUCCESS
}
