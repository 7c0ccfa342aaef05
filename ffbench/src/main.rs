//! `ffbench`: four named workloads, six end-to-end metrics, per-layer
//! attribution timed from outside. See `README.md` beside `Cargo.toml`.
//!
//! Two ways to run it, both from the repository root:
//!
//! * one workload, one pass, for a driver —
//!   `--workload <name> --seed <n> --seconds <s> --trace <0|1>`: the last
//!   line of standard output is one JSON object with the end-to-end
//!   (`--trace 0`) or per-layer (`--trace 1`) metrics;
//! * the whole suite — `--seed <n>` alone: all four workloads, their
//!   untraced segments interleaved round-robin, then a shorter traced
//!   pass; `--aa` runs the untraced pass twice and compares the two
//!   against the bounds; `--quick` is a smoke run whose numbers compare
//!   with nothing.

mod alloc;
mod layers;
mod load;
mod metrics;
mod pass;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{END_TO_END, PER_LAYER};
use pass::{end_to_end, traced_pass, Acc, EndToEndValues, Gate};
use workload::{Workload, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
    quick: bool,
    out: PathBuf,
}

const USAGE: &str = "usage: ffbench [--workload <name>] [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--aa] [--quick] [--out <dir>] [--benchmark-json]";

fn parse_args() -> Result<Option<Args>, String> {
    // Outputs go beside the build: `target/` unless the caller moved it.
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        aa: false,
        quick: false,
        out: PathBuf::from(target).join("ffbench"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be between 0 and 600".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--aa" => args.aa = true,
            "--quick" => args.quick = true,
            "--out" => args.out = PathBuf::from(value()?),
            "--benchmark-json" => {
                print!("{}", metrics::benchmark_json());
                return Ok(None);
            }
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    Ok(Some(args))
}

/// Runs untraced segments of every workload round-robin until each has
/// measured for `seconds` (and at least `min_segments` times), so slow
/// machine drift hits all workloads alike. One unmeasured segment per
/// workload comes first (unless `seconds` is 0): it warms the process up
/// and sizes the buffers.
fn untraced_pass(workloads: &[Workload], seconds: f64, min_segments: usize) -> Vec<Acc> {
    let mut accs: Vec<Acc> = workloads
        .iter()
        .map(|w| {
            if seconds == 0.0 {
                return Acc::with_room(w, min_segments);
            }
            let mut warm = Acc::with_room(w, 1);
            warm.run_one(w);
            let per_segment = warm.spent.as_secs_f64().max(1e-3);
            let room = (seconds / per_segment * 1.5) as usize + min_segments + 2;
            Acc::with_room(w, room)
        })
        .collect();
    loop {
        let mut ran = false;
        for (w, acc) in workloads.iter().zip(&mut accs) {
            let wanted = acc.spent.as_secs_f64() < seconds || acc.samples.len() < min_segments;
            if wanted && acc.has_room(w) {
                acc.run_one(w);
                ran = true;
            }
        }
        if !ran {
            return accs;
        }
    }
}

fn print_end_to_end(name: &str, e: &EndToEndValues, segments: usize) {
    for (m, v) in END_TO_END.iter().zip(e.values) {
        println!("{name} {} {v} {}", m.name, m.unit);
    }
    println!(
        "{name} # {segments} segments, {} service intervals; frames_per_s quartiles {:.3} {:.3}; \
         setup_s quartiles {:.5} {:.5}; frame_ms_p99 {:.4}",
        e.interval_samples, e.fps.q1, e.fps.q3, e.setup.q1, e.setup.q3, e.p99_ms
    );
}

fn json_metrics(pairs: impl Iterator<Item = (&'static str, f64, &'static str)>) -> String {
    let mut s = String::from("{");
    for (i, (name, value, unit)) in pairs.enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push('}');
    s
}

fn end_to_end_json(e: &EndToEndValues) -> String {
    json_metrics(
        END_TO_END
            .iter()
            .zip(e.values)
            .map(|(m, v)| (m.name, v, m.unit)),
    )
}

fn result_json(gate: &Gate, metrics: &str) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        gate.problems.is_empty(),
        gate.attempted.max(1),
        gate.failed
    )
}

fn write_out(args: &Args, file: &str, text: &str) {
    let path = args.out.join(file);
    let written = std::fs::create_dir_all(&args.out).and_then(|()| std::fs::write(&path, text));
    if let Err(e) = written {
        eprintln!("ffbench: cannot write {}: {e}", path.display());
    }
}

/// Names what the gate found wrong on standard error; the exit code says
/// whether it found anything.
fn verdict(gate: &Gate) -> ExitCode {
    for p in &gate.problems {
        eprintln!("ffbench: FAILED {p}");
    }
    if gate.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The traced pass of one workload: per-layer lines, the Chrome trace
/// file, and the metrics object.
fn run_traced(args: &Args, w: &Workload, seconds: f64, gate: &mut Gate) -> String {
    let traced = traced_pass(w, seconds, gate);
    // A metric the workload does not exercise reads 0.
    let values = PER_LAYER.map(|(name, unit, _)| {
        let v = traced.layers.get(name).copied().unwrap_or(0.0);
        println!("{} {name} {v} {unit}", w.name);
        (name, v, unit)
    });
    if let Some(chrome) = &traced.chrome {
        write_out(args, &format!("{}.trace.json", w.name), chrome);
    }
    json_metrics(values.into_iter())
}

/// One workload, one pass, one JSON line: the driver's contract.
fn run_single(args: &Args, name: &str) -> ExitCode {
    let Some(w) = Workload::prepare(name, args.seed, args.quick) else {
        eprintln!("ffbench: unknown workload {name}");
        return ExitCode::from(2);
    };
    println!("{name} loadgen_s {} s", w.loadgen_s);
    let mut gate = Gate::default();
    let metrics = if args.trace {
        run_traced(args, &w, args.seconds, &mut gate)
    } else {
        let mut accs = untraced_pass(std::slice::from_ref(&w), args.seconds, 3);
        let acc = &mut accs[0];
        gate.segments(name, &acc.samples);
        let e = end_to_end(acc);
        print_end_to_end(name, &e, acc.samples.len());
        end_to_end_json(&e)
    };
    let code = verdict(&gate);
    let line = result_json(&gate, &metrics);
    let pass = if args.trace { "layers" } else { "end_to_end" };
    write_out(args, &format!("{name}.{pass}.json"), &line);
    println!("{line}");
    code
}

/// All four workloads: the untraced pass (twice under `--aa`), then the
/// traced pass at a third of the length.
fn run_suite(args: &Args) -> ExitCode {
    let (seconds, min_segments) = if args.quick {
        (0.0, 3)
    } else {
        (args.seconds, 5)
    };
    let workloads: Vec<Workload> = WORKLOADS
        .iter()
        .map(|(name, _)| Workload::prepare(name, args.seed, args.quick).expect("listed workload"))
        .collect();
    if args.quick {
        println!("# --quick: smoke run, these numbers compare with nothing");
    }
    println!(
        "# seed {}, {} s per workload, {} cores",
        args.seed,
        seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut gate = Gate::default();
    let mut doc = String::from("{\n");

    let pass = |label: &str, gate: &mut Gate, doc: &mut String| -> Vec<[f64; 6]> {
        let mut accs = untraced_pass(&workloads, seconds, min_segments);
        workloads
            .iter()
            .zip(&mut accs)
            .map(|(w, acc)| {
                gate.segments(w.name, &acc.samples);
                let e = end_to_end(acc);
                print_end_to_end(w.name, &e, acc.samples.len());
                let m = end_to_end_json(&e);
                let _ = writeln!(doc, "  \"{}.{label}\": {m},", w.name);
                e.values
            })
            .collect()
    };
    let first = pass("end_to_end", &mut gate, &mut doc);
    if args.aa {
        println!("# --aa: the same pass again, relative difference against each bound");
        let second = pass("end_to_end_again", &mut gate, &mut doc);
        for ((w, a), b) in workloads.iter().zip(&first).zip(&second) {
            for ((m, a), b) in END_TO_END.iter().zip(a).zip(b) {
                let diff = (b - a).abs() / a.abs().max(f64::MIN_POSITIVE);
                let verdict = if diff <= m.bound { "ok" } else { "EXCEEDS" };
                println!(
                    "{} {} aa_diff {diff:.4} bound {} {verdict}",
                    w.name, m.name, m.bound
                );
                gate.expect(diff <= m.bound, || {
                    format!(
                        "{}: {} differs by {diff:.4} between two passes",
                        w.name, m.name
                    )
                });
            }
        }
    } else {
        for w in &workloads {
            println!("{} loadgen_s {} s", w.name, w.loadgen_s);
            let m = run_traced(args, w, seconds / 3.0, &mut gate);
            let _ = writeln!(doc, "  \"{}.layers\": {m},", w.name);
        }
    }
    let code = verdict(&gate);
    let _ = writeln!(
        doc,
        "  \"seed\": {}, \"quick\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}\n}}",
        args.seed,
        args.quick,
        gate.problems.is_empty(),
        gate.attempted,
        gate.failed
    );
    write_out(args, "ffbench.json", &doc);
    println!(
        "# correct {} attempted {} failed {}",
        gate.problems.is_empty(),
        gate.attempted,
        gate.failed
    );
    code
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ffbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Serial workloads run on the calling thread; node workloads bring
    // their own pool of at most two workers, never more than the cores.
    ff_tensor::parallel::set_threads(1);
    match args.workload.as_deref() {
        Some(name) => run_single(&args, name),
        None => run_suite(&args),
    }
}
