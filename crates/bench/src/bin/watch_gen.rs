//! Seeded live-trace generator for the CI watch soak.
//!
//! Simulates a tandem network once (fully deterministic given `--seed`),
//! then *appends* the resulting JSONL records to `--out` in chunks of
//! `--chunk-tasks` tasks, sleeping `--sleep-ms` between chunks — a
//! stand-in for an instrumentation agent emitting a trace while `qni
//! watch` tails it. Each chunk is flushed in two halves with a short gap
//! so the tail reader's partial-line path is exercised under real
//! interleaving, not just in unit tests.
//!
//! Because the simulation is seeded and the final file is the full
//! record sequence, the soak job can replay the finished file through
//! `qni stream` and demand a byte-identical trajectory from the watcher.
//!
//! Fault-tolerance soaks add:
//!
//! - `--mirror FILE`: also write the *clean complete* trace to FILE up
//!   front. When the live file is polluted (`--bad-lines`) or rotated
//!   (`--rotate-every`), the mirror is what `qni stream` replays for
//!   the fingerprint comparison.
//! - `--bad-lines N`: inject one bad line after each of the first N
//!   chunks (excluded from the mirror), cycling through four kinds a
//!   reader must reject: broken JSON, a record with a non-finite time,
//!   a record with a repeated key, and a record missing a key —
//!   exercises the watcher's `--max-bad-lines` quarantine.
//! - `--rotate-every N`: copytruncate the live file after every N
//!   chunks (post-sleep, so a paced watcher has caught up) — exercises
//!   `--follow-rotations on`.
//!
//! Usage:
//!   cargo run --release -p qni-bench --bin watch_gen -- \
//!     --out live.jsonl --seed 11 --tasks 400 --lambda 2.0 \
//!     --mu 6.0,8.0 --observe 0.3 --chunk-tasks 20 --sleep-ms 40 \
//!     [--mirror clean.jsonl] [--bad-lines 3] [--rotate-every 5]

use qni_sim::{Simulator, Workload};
use qni_stats::rng::rng_from_seed;
use qni_trace::record::{to_records, write_record};
use qni_trace::ObservationScheme;
use std::collections::HashMap;
use std::io::Write;

fn parse_flags() -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let key = arg
            .strip_prefix("--")
            .unwrap_or_else(|| panic!("expected --flag, got `{arg}`"));
        let val = args
            .next()
            .unwrap_or_else(|| panic!("--{key} requires a value"));
        flags.insert(key.to_owned(), val);
    }
    flags
}

fn get<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> T {
    flags.get(key).map_or(default, |v| {
        v.parse()
            .unwrap_or_else(|_| panic!("--{key}: bad value `{v}`"))
    })
}

/// The `n`-th injected bad line. The kinds cycle: broken JSON, then three
/// well-formed objects a reader must still reject — a non-finite time, a
/// repeated key, a missing key.
fn bad_line(n: usize) -> String {
    const FLAGS: &str = "\"arrival_observed\":true,\"departure_observed\":true";
    match n % 4 {
        0 => format!("{{\"corrupt\": {n}\n"),
        1 => format!(
            "{{\"task\":0,\"state\":1,\"queue\":1,\"arrival\":1e400,\"departure\":1.0,{FLAGS}}}\n"
        ),
        2 => format!(
            "{{\"task\":0,\"task\":0,\"state\":1,\"queue\":1,\"arrival\":0.5,\"departure\":1.0,{FLAGS}}}\n"
        ),
        _ => "{\"task\":0,\"state\":1,\"queue\":1,\"arrival\":0.5,\"departure\":1.0}\n".to_owned(),
    }
}

fn main() {
    let flags = parse_flags();
    let out = flags.get("out").expect("watch_gen requires --out FILE");
    let seed = get(&flags, "seed", 11_u64);
    let tasks = get(&flags, "tasks", 400_usize);
    let lambda = get(&flags, "lambda", 2.0_f64);
    let observe = get(&flags, "observe", 0.3_f64);
    let chunk_tasks = get(&flags, "chunk-tasks", 20_usize).max(1);
    let sleep_ms = get(&flags, "sleep-ms", 40_u64);
    let mus: Vec<f64> = flags
        .get("mu")
        .map_or_else(|| "6.0,8.0".to_owned(), std::string::ToString::to_string)
        .split(',')
        .map(|s| s.trim().parse().expect("--mu: bad number"))
        .collect();

    let bp = qni_model::topology::tandem(lambda, &mus).expect("tandem topology");
    let mut rng = rng_from_seed(seed);
    let truth = Simulator::new(&bp.network)
        .run(
            &Workload::poisson_n(lambda, tasks).expect("workload"),
            &mut rng,
        )
        .expect("simulate");
    let masked = ObservationScheme::task_sampling(observe)
        .expect("observe fraction")
        .apply(truth, &mut rng)
        .expect("apply observation");
    let records = to_records(masked.ground_truth(), masked.mask());

    // Group record lines by task: builder event ids are task-grouped, so a
    // chunk boundary between tasks always leaves complete tasks on disk.
    let mut task_lines: Vec<Vec<u8>> = Vec::new();
    for rec in &records {
        if rec.event.is_initial() || task_lines.is_empty() {
            task_lines.push(Vec::new());
        }
        write_record(task_lines.last_mut().expect("pushed above"), rec);
    }

    let bad_lines = get(&flags, "bad-lines", 0_usize);
    let rotate_every = get(&flags, "rotate-every", 0_usize);
    if let Some(mirror) = flags.get("mirror") {
        // The clean, complete trace — what `qni stream` replays when the
        // live file is polluted or rotated.
        let clean: Vec<u8> = task_lines.iter().flatten().copied().collect();
        std::fs::write(mirror, &clean).expect("write --mirror");
        println!("wrote clean mirror ({} bytes) to {mirror}", clean.len());
    }

    let num_queues = mus.len() + 1;
    println!(
        "appending {} tasks ({} events, {num_queues} queues) to {out}: \
         {chunk_tasks} task(s)/chunk, {sleep_ms} ms between chunks, \
         {bad_lines} bad line(s), rotate every {rotate_every} chunk(s)",
        task_lines.len(),
        records.len()
    );
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out)
        .expect("open --out for append");
    let mut injected_bad = 0usize;
    for (i, chunk) in task_lines.chunks(chunk_tasks).enumerate() {
        let bytes: Vec<u8> = chunk.iter().flatten().copied().collect();
        // Flush in two halves, deliberately splitting a JSON line across
        // writes, so the watcher must reassemble partial lines.
        let mid = bytes.len() / 2;
        file.write_all(&bytes[..mid]).expect("append chunk");
        file.flush().expect("flush");
        std::thread::sleep(std::time::Duration::from_millis(1));
        file.write_all(&bytes[mid..]).expect("append chunk");
        if injected_bad < bad_lines {
            // A bad line between complete tasks: valid UTF-8, so it takes
            // the quarantine path, not the assembler's.
            file.write_all(bad_line(injected_bad).as_bytes())
                .expect("append bad line");
            injected_bad += 1;
        }
        file.flush().expect("flush");
        std::thread::sleep(std::time::Duration::from_millis(sleep_ms));
        if rotate_every > 0 && (i + 1) % rotate_every == 0 {
            // Copytruncate rotation, after the sleep so a paced watcher
            // has consumed everything written so far.
            std::fs::File::create(out).expect("rotate --out");
        }
    }
    println!("done: trace complete at {out} ({injected_bad} bad line(s) injected)");
}
