//! Crash-safety end to end: checkpoint/resume, rotation tolerance, and
//! the malformed-line quarantine, all pinned against the byte-identity
//! contract — a session that crashes and resumes (or survives rotations
//! and junk lines) must produce the exact `run_stream` replay
//! trajectory of the clean complete trace.

use proptest::prelude::*;
use qni::prelude::*;
use qni::trace::record::{from_records, to_records};
use qni::trace::{apply_write_op, torn_write_script, WriteOp};
use std::io::Write;

const WIDTH: f64 = 40.0;
const STRIDE: f64 = 20.0;

fn sample_masked(seed: u64, tasks: usize) -> MaskedLog {
    let bp = qni::model::topology::tandem(2.0, &[6.0, 8.0]).expect("topology");
    let mut rng = rng_from_seed(seed);
    let truth = Simulator::new(&bp.network)
        .run(
            &Workload::poisson_n(2.0, tasks).expect("workload"),
            &mut rng,
        )
        .expect("simulation");
    ObservationScheme::task_sampling(0.3)
        .expect("fraction")
        .apply(truth, &mut rng)
        .expect("mask")
}

fn stream_opts(seed: u64) -> StreamOptions {
    StreamOptions {
        stem: StemOptions {
            iterations: 60,
            burn_in: 25,
            waiting_sweeps: 1,
            ..StemOptions::default()
        },
        chains: 1,
        master_seed: seed,
        thread_budget: None,
        warm_start: true,
        warm_burn_in: None,
        occupancy_carry: true,
        clock: None,
    }
}

/// Per-task JSONL chunks in builder order (each chunk one complete
/// task) — the same shape `write_jsonl` and the soak generator emit.
fn task_chunks(masked: &MaskedLog) -> Vec<Vec<u8>> {
    let records = to_records(masked.ground_truth(), masked.mask());
    let mut chunks: Vec<Vec<u8>> = Vec::new();
    for rec in &records {
        if rec.event.is_initial() || chunks.is_empty() {
            chunks.push(Vec::new());
        }
        let chunk = chunks.last_mut().expect("pushed above");
        serde_json::to_writer(&mut *chunk, rec).expect("serialize");
        chunk.push(b'\n');
    }
    chunks
}

fn replay_fingerprint(masked: &MaskedLog, seed: u64) -> Vec<u64> {
    let schedule = WindowSchedule::new(WIDTH, STRIDE).expect("schedule");
    let num_queues = masked.ground_truth().num_queues();
    let records = to_records(masked.ground_truth(), masked.mask());
    let replayed = from_records(&records, num_queues).expect("round trip");
    run_stream(&replayed, &schedule, &stream_opts(seed))
        .expect("replay")
        .fingerprint()
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("qni-crash-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

/// The tentpole pin: kill the session at many different byte cuts —
/// including cuts that land mid-line and cuts where the file has grown
/// *past* the last checkpoint (the checkpoint is stale, as after a real
/// crash) — resume from the checkpoint file, and the final trajectory
/// is byte-identical to the uninterrupted replay every time.
#[test]
fn resume_from_checkpoint_matches_replay_at_every_cut() {
    let masked = sample_masked(31, 220);
    let schedule = WindowSchedule::new(WIDTH, STRIDE).expect("schedule");
    let num_queues = masked.ground_truth().num_queues();
    let bytes: Vec<u8> = task_chunks(&masked).into_iter().flatten().collect();
    let want = replay_fingerprint(&masked, 9);

    let dir = tmp_dir("resume");
    let path = dir.join("trace.jsonl");
    let cp_path = dir.join("cp.json");
    let n = bytes.len();
    // Byte cuts at assorted fractions, deliberately not line-aligned;
    // `extra` grows the file past the checkpoint before the "crash".
    for (i, (num, extra)) in [(1usize, 0usize), (2, 0), (3, 137), (5, 0), (6, 453), (7, 0)]
        .into_iter()
        .enumerate()
    {
        let cut = n * num / 8 + 3;
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&cp_path);
        let mut session =
            WatchSession::new(&path, schedule, num_queues, stream_opts(9)).expect("session");
        std::fs::write(&path, &bytes[..cut]).expect("write prefix");
        session.step().expect("step to cut");
        session
            .checkpoint()
            .save_atomic(&cp_path)
            .expect("save checkpoint");
        if extra > 0 {
            // The producer kept writing after the checkpoint; the
            // session even consumed some of it before dying.
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .expect("append");
            f.write_all(&bytes[cut..cut + extra]).expect("grow");
            f.flush().expect("flush");
            session.step().expect("post-checkpoint step");
        }
        drop(session); // the crash

        let loaded = Checkpoint::load(&cp_path).expect("load checkpoint");
        let mut resumed = WatchSession::resume(
            &path,
            schedule,
            num_queues,
            stream_opts(9),
            TailOptions::default(),
            &loaded,
        )
        .expect("resume");
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("append");
        f.write_all(&bytes[cut + extra..]).expect("append rest");
        f.flush().expect("flush");
        resumed.step().expect("resume step");
        let live = resumed.finish().expect("finish");
        assert_eq!(live.fingerprint(), want, "cut #{i} (byte {cut}+{extra})");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A copytruncate rotation landing mid-partial-line, produced by a
/// seeded torn-write script, is followed transparently: the watcher's
/// trajectory still equals the clean replay, and the rotation is
/// counted in the tail stats.
#[test]
fn rotation_mid_stream_under_follow_matches_replay() {
    let masked = sample_masked(32, 200);
    let schedule = WindowSchedule::new(WIDTH, STRIDE).expect("schedule");
    let num_queues = masked.ground_truth().num_queues();
    let bytes: Vec<u8> = task_chunks(&masked).into_iter().flatten().collect();
    let want = replay_fingerprint(&masked, 11);

    let dir = tmp_dir("rotate");
    let path = dir.join("rotating.jsonl");
    for script_seed in [4u64, 5] {
        let ops = torn_write_script(&bytes, script_seed, 97, 3).expect("script");
        assert!(ops.iter().any(|op| matches!(op, WriteOp::Rotate)));
        let _ = std::fs::remove_file(&path);
        let tail = TailOptions {
            rotation: RotationPolicy::Follow,
            ..TailOptions::default()
        };
        let mut session =
            WatchSession::with_tail_options(&path, schedule, num_queues, stream_opts(11), tail)
                .expect("session");
        // Poll between every write op so the reader is caught up before
        // each rotation discards the file's bytes.
        for op in &ops {
            apply_write_op(&path, op).expect("write op");
            session.step().expect("step");
        }
        assert_eq!(session.tail_stats().rotations, 3, "seed {script_seed}");
        let live = session.finish().expect("finish");
        assert_eq!(live.fingerprint(), want, "seed {script_seed}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Malformed lines between tasks are quarantined up to the budget
/// without perturbing the trajectory (bytes equal the clean replay);
/// one line past the budget hard-fails with the file and line number in
/// the error.
#[test]
fn quarantine_budget_preserves_trajectory_then_fails_loudly() {
    let masked = sample_masked(33, 180);
    let schedule = WindowSchedule::new(WIDTH, STRIDE).expect("schedule");
    let num_queues = masked.ground_truth().num_queues();
    let chunks = task_chunks(&masked);
    let want = replay_fingerprint(&masked, 13);

    let dir = tmp_dir("quarantine");
    let path = dir.join("polluted.jsonl");
    let _ = std::fs::remove_file(&path);
    let tail = TailOptions {
        max_bad_lines: 3,
        ..TailOptions::default()
    };
    let mut session =
        WatchSession::with_tail_options(&path, schedule, num_queues, stream_opts(13), tail)
            .expect("session");
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .expect("open");
    let mut injected = 0u64;
    for (i, chunk) in chunks.chunks(40).enumerate() {
        let bytes: Vec<u8> = chunk.iter().flatten().copied().collect();
        f.write_all(&bytes).expect("append");
        if injected < 3 {
            f.write_all(format!("{{\"corrupt\": {i}\n").as_bytes())
                .expect("append junk");
            injected += 1;
        }
        f.flush().expect("flush");
        let report = session.step().expect("step");
        assert_eq!(report.bad_lines, injected);
    }
    assert_eq!(session.tail_stats().bad_lines, 3);
    // Budget exhausted: the next junk line is a hard, located error.
    f.write_all(b"not json either\n").expect("append junk");
    f.flush().expect("flush");
    let err = session.step().expect_err("budget exhausted");
    let msg = err.to_string();
    assert!(msg.contains("bad trace line"), "unexpected error: {msg}");
    assert!(msg.contains("polluted.jsonl"), "no path in: {msg}");

    // A fresh session with the same budget over the polluted file
    // reproduces the clean replay bytes exactly.
    let tail = TailOptions {
        max_bad_lines: 4,
        ..TailOptions::default()
    };
    let mut clean_run =
        WatchSession::with_tail_options(&path, schedule, num_queues, stream_opts(13), tail)
            .expect("session");
    clean_run.step().expect("drain");
    let live = clean_run.finish().expect("finish");
    assert_eq!(live.fingerprint(), want, "quarantine perturbed the bytes");
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        max_shrink_iters: 50,
        .. ProptestConfig::default()
    })]

    /// Checkpoints taken at arbitrary byte cuts — mid-line included, so
    /// the tail's held partial line and the slicer's buffered tasks are
    /// non-trivial — survive the JSON round-trip bit for bit: the loaded
    /// checkpoint writes back the bytes it was read from.
    #[test]
    fn checkpoint_json_round_trips(
        sim_seed in 40u64..48,
        cut_num in 1usize..8,
    ) {
        let masked = sample_masked(sim_seed, 120);
        let schedule = WindowSchedule::new(WIDTH, STRIDE).expect("schedule");
        let num_queues = masked.ground_truth().num_queues();
        let bytes: Vec<u8> = task_chunks(&masked).into_iter().flatten().collect();
        let dir = tmp_dir("roundtrip");
        let path = dir.join(format!("rt-{sim_seed}-{cut_num}.jsonl"));
        let cp_path = dir.join(format!("rt-{sim_seed}-{cut_num}.cp.json"));
        let cut = bytes.len() * cut_num / 8 + 1;
        std::fs::write(&path, &bytes[..cut]).expect("write prefix");
        let mut session =
            WatchSession::new(&path, schedule, num_queues, stream_opts(17)).expect("session");
        session.step().expect("step");
        let cp = session.checkpoint();
        cp.save_atomic(&cp_path).expect("save");
        let loaded = Checkpoint::load(&cp_path).expect("load");
        let written = serde_json::to_string(&cp).expect("serialize");
        prop_assert_eq!(&serde_json::to_string(&loaded).expect("serialize"), &written);
        prop_assert_eq!(std::fs::read_to_string(&cp_path).expect("read"), written);
        // And the loaded form is resumable (shape-valid), not just equal.
        let resumed = WatchSession::resume(
            &path,
            schedule,
            num_queues,
            stream_opts(17),
            TailOptions::default(),
            &loaded,
        );
        prop_assert!(resumed.is_ok());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&cp_path);
    }
}
