//! The repository benchmark: time-to-verdict, decided share and per-layer
//! cost of the `cpcf` analyzer over a frozen copy of the Table-1 corpus
//! and the persistent store.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload corpus-cold|corpus-light|reverify-store|corpus-parallel \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is the result JSON; see
//! `perfbench/README.md` for the workloads, metrics and the traced run.

mod corpus;
mod report;
mod run;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use corpus::{Verdict, VARIANTS};
use run::{Bench, Pass, Rng, Workload};

/// Set-up is repeated this many times per process; `setup_s` is the median.
const SETUP_REPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Checks that every pass repeats the first pass: the same verdict per
/// variant and, at one worker, the same prover queries, solver checks and
/// heap snapshots per variant and the same store writes per pass.
struct Guard {
    exact_counters: bool,
    reference: Vec<Option<(Verdict, [u64; 3])>>,
    store_writes: Option<u64>,
}

impl Guard {
    fn check(&mut self, pass: &Pass, programs: &[corpus::Program]) -> Result<(), String> {
        for sample in &pass.samples {
            let counters = [
                sample.stats.queries,
                sample.stats.solver.checks,
                sample.stats.snapshots,
            ];
            let slot = &mut self.reference[sample.program * 2 + sample.variant];
            let (verdict, expected) = *slot.get_or_insert((sample.verdict, counters));
            let what = || {
                format!(
                    "{}:{}",
                    programs[sample.program].key, VARIANTS[sample.variant]
                )
            };
            if verdict != sample.verdict {
                return Err(format!(
                    "{}: verdict {} differs from the first pass's {}",
                    what(),
                    sample.verdict.marker(),
                    verdict.marker()
                ));
            }
            if self.exact_counters && expected != counters {
                return Err(format!(
                    "{}: [queries, checks, snapshots] {counters:?} differ from the first pass's {expected:?}",
                    what()
                ));
            }
        }
        if let Some(writes) = pass.store_writes {
            let expected = *self.store_writes.get_or_insert(writes);
            if self.exact_counters && expected != writes {
                return Err(format!(
                    "store writes {writes} differ from the first pass's {expected}"
                ));
            }
        }
        Ok(())
    }
}

/// VmHWM of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Rust lines per crate of the repository (metadata, not a metric), and
/// an FNV-1a digest of those sources to identify the code outside git.
fn rust_loc(repo: &Path) -> (Vec<(String, usize)>, u64) {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        let mut entries: Vec<_> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
        entries.sort();
        for path in entries {
            if path.is_dir() && path.file_name().is_some_and(|n| n != "target") {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    let mut crates: Vec<(String, Vec<PathBuf>)> = vec![(
        "hoce".to_string(),
        ["src", "tests", "examples"]
            .iter()
            .map(|d| repo.join(d))
            .collect(),
    )];
    for group in ["crates", "crates/compat"] {
        let Ok(entries) = std::fs::read_dir(repo.join(group)) else {
            continue;
        };
        let mut dirs: Vec<PathBuf> = entries.filter_map(|e| Some(e.ok()?.path())).collect();
        dirs.sort();
        for dir in dirs.into_iter().filter(|d| d.join("Cargo.toml").is_file()) {
            let name = dir.strip_prefix(repo).unwrap_or(&dir).display().to_string();
            crates.push((name, vec![dir]));
        }
    }
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let loc = crates
        .into_iter()
        .map(|(name, roots)| {
            let mut files = Vec::new();
            for root in &roots {
                walk(root, &mut files);
            }
            let mut lines = 0;
            for file in files {
                let text = std::fs::read(&file).unwrap_or_default();
                lines += text.iter().filter(|&&b| b == b'\n').count();
                for byte in text {
                    digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
            (name, lines)
        })
        .collect();
    (loc, digest)
}

fn git_rev(repo: &Path) -> String {
    if !repo.join(".git").exists() {
        return "none".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(repo)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or("none".to_string(), |out| {
            String::from_utf8_lossy(&out.stdout).trim().to_string()
        })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload corpus-cold|corpus-light|reverify-store|corpus-parallel \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args, process_start) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: FAILED: {message}");
            ExitCode::from(3)
        }
    }
}

fn run(args: &Args, process_start: Instant) -> Result<(), String> {
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let repo = bench_dir.parent().unwrap_or(bench_dir);
    let programs = corpus::load(&bench_dir.join("corpus"))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workload = args.workload;
    let workers = if workload == Workload::CorpusParallel {
        nproc
    } else {
        1
    };

    let light: Vec<usize> = (0..programs.len())
        .filter(|&i| !programs[i].heavy)
        .collect();
    let selected = if workload == Workload::CorpusLight {
        light.clone()
    } else {
        (0..programs.len()).collect()
    };
    // The edited programs come from their own stream, so they do not
    // depend on how many shuffles the passes draw.
    let mut edited = Vec::new();
    if workload == Workload::ReverifyStore {
        let mut pick = light.clone();
        Rng::new(args.seed ^ 0x5EED_ED17).shuffle(&mut pick);
        pick.truncate(run::EDITED_PROGRAMS);
        pick.sort_unstable();
        edited = pick;
    }
    let out_dir = repo.join(".bench_out");
    let work_dir = (workload == Workload::ReverifyStore)
        .then(|| out_dir.join(format!("{}-{}", workload.name(), std::process::id())));

    let mut bench = Bench {
        selected,
        edited,
        options: run::table1_options(workers),
        work_dir: work_dir.clone(),
        rng: Rng::new(args.seed),
        trace: trace::Trace::new(),
        programs,
    };
    let mut guard = Guard {
        exact_counters: workers == 1,
        reference: vec![None; bench.programs.len() * 2],
        store_writes: None,
    };
    let result = measure(args, &mut bench, &mut guard, process_start);
    if let Some(dir) = &work_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let (setup_times, passes, template_bytes, setup_rss_mb) = result?;

    // Report.
    let timed: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let setup_s = report::median(&setup_times);
    let e2e = report::end_to_end(&timed, &bench.programs);
    let all = report::end_to_end(&passes.iter().collect::<Vec<_>>(), &bench.programs);
    print!("{}", report::rows(&timed, &bench.programs, &bench.selected));

    let (loc, digest) = rust_loc(repo);
    let loc_json: Vec<String> = loc.iter().map(|(c, n)| format!("\"{c}\": {n}")).collect();
    let mut meta = vec![
        format!("\"workload\": \"{}\"", workload.name()),
        format!("\"seed\": {}", args.seed),
        format!("\"git_rev\": \"{}\"", git_rev(repo)),
        format!("\"source_fnv\": \"{digest:016x}\""),
        format!("\"nproc\": {nproc}"),
        format!("\"workers\": {workers}"),
        format!("\"setup_reps\": {SETUP_REPS}"),
        format!(
            "\"setup_s\": [{}]",
            setup_times
                .iter()
                .map(|t| report::num(*t))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        format!("\"passes\": {}", timed.len()),
        format!(
            "\"pass_ms\": [{}]",
            timed
                .iter()
                .map(|p| format!("{:.2}", p.wall_ns as f64 / 1e6))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        format!("\"traced_passes\": {}", traced.len()),
        format!("\"samples\": {}", e2e.attempted),
        format!("\"tail_percentile\": {}", e2e.tail.0),
        format!("\"tail_samples_beyond\": {}", e2e.tail.2),
        format!("\"peak_rss_mb_end\": {}", report::num(peak_rss_mb())),
        format!("\"rust_loc\": {{{}}}", loc_json.join(", ")),
    ];
    if workload == Workload::ReverifyStore {
        let edited: Vec<String> = bench
            .edited
            .iter()
            .map(|&i| format!("\"{}\"", bench.programs[i].key))
            .collect();
        meta.push(format!("\"edited\": [{}]", edited.join(", ")));
        meta.push(format!("\"template_store_bytes\": {template_bytes}"));
    }

    let metrics = if args.trace {
        // Overhead: each traced pass against the untraced pass before it.
        let ratios: Vec<f64> = passes
            .chunks(2)
            .filter(|pair| pair.len() == 2)
            .map(|pair| pair[1].wall_ns as f64 / pair[0].wall_ns as f64 - 1.0)
            .collect();
        let traced_e2e = report::end_to_end(&traced, &bench.programs);
        meta.push(format!(
            "\"tracing_overhead_pct\": {}",
            report::num(100.0 * report::median(&ratios))
        ));
        meta.push(format!(
            "\"untraced_variants_per_s\": {}",
            report::num(e2e.variants_per_s)
        ));
        meta.push(format!(
            "\"traced_variants_per_s\": {}",
            report::num(traced_e2e.variants_per_s)
        ));
        std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
        let trace_path = out_dir.join(format!("trace-{}-seed{}.json", workload.name(), args.seed));
        bench
            .trace
            .write_chrome(&trace_path)
            .map_err(|e| e.to_string())?;
        meta.push(format!(
            "\"trace_file\": \"{}\"",
            trace_path
                .strip_prefix(repo)
                .unwrap_or(&trace_path)
                .display()
        ));
        report::per_layer_metrics(&bench.trace.spans, &traced, workers)
    } else {
        report::end_to_end_metrics(&e2e, setup_s, setup_rss_mb)
    };
    println!("meta {{{}}}", meta.join(", "));
    println!(
        "{}",
        report::result_line(all.failed == 0, all.attempted, all.failed, &metrics)
    );
    Ok(())
}

/// Set-up (repeated) and the timed passes. Returns the set-up times in
/// seconds, every timed pass, the template store's size and the peak RSS
/// at the end of set-up.
fn measure(
    args: &Args,
    bench: &mut Bench,
    guard: &mut Guard,
    process_start: Instant,
) -> Result<(Vec<f64>, Vec<Pass>, u64, f64), String> {
    let io = |e: std::io::Error| format!("store I/O failed: {e}");
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut template_bytes = 0;
    for rep in 0..SETUP_REPS {
        // The first set-up counts from process start.
        let start = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        if bench.work_dir.is_some() {
            template_bytes = bench.populate_store().map_err(io)?;
        }
        let warm_up = bench.run_pass(0, false).map_err(io)?;
        guard.check(&warm_up, &bench.programs)?;
        setup_times.push(start.elapsed().as_secs_f64());
    }
    // Memory after a fixed amount of work: the timed phase runs as many
    // passes as the host allows, and the analyzer's process-global state
    // grows with every analysis, so its end-of-run peak is not comparable.
    let setup_rss_mb = peak_rss_mb();

    // Whole passes until the time is up; in a traced run, untraced and
    // traced passes alternate so both see the same host conditions.
    let min_passes = if args.trace { 4 } else { report::MIN_PASSES };
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < min_passes || start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && passes.len() % 2 == 1;
        let pass = bench.run_pass(passes.len(), traced).map_err(io)?;
        guard.check(&pass, &bench.programs)?;
        passes.push(pass);
    }
    Ok((setup_times, passes, template_bytes, setup_rss_mb))
}
