//! End-to-end resilience tests for the hardened campaign runner: kill +
//! resume bit-identity, watchdog hang conversion, and typed panic
//! propagation.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use radcrit_accel::config::DeviceConfig;
use radcrit_accel::error::AccelError;
use radcrit_campaign::runner::WATCHDOG_SITE;
use radcrit_campaign::{Campaign, InjectionOutcome, KernelSpec, RunOptions};
use radcrit_kernels::pathological::Failure;

fn temp_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "radcrit-resilience-{tag}-{}.jsonl",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    path
}

fn dgemm_campaign() -> Campaign {
    Campaign::new(
        DeviceConfig::kepler_k40(),
        KernelSpec::Dgemm { n: 32 },
        60,
        7,
    )
    .with_workers(2)
}

#[test]
fn killed_campaign_resumes_to_an_identical_summary() {
    let campaign = dgemm_campaign();
    let uninterrupted = campaign.run().unwrap();

    // "Kill" the campaign mid-run: the budget stops it after 25 records,
    // exactly as if the process had died there — the checkpoint is the
    // only survivor.
    let path = temp_path("resume");
    let partial = campaign
        .run_with(&RunOptions {
            checkpoint: Some(path.clone()),
            resume: false,
            budget: Some(25),
            ..RunOptions::default()
        })
        .unwrap();
    assert_eq!(partial.records.len(), 25);
    assert!(!partial.is_complete());
    assert_eq!(partial.telemetry.completed, 25);

    let resumed = campaign.resume(&path).unwrap();
    assert!(resumed.is_complete());
    assert_eq!(resumed.telemetry.replayed, 25);
    assert_eq!(resumed.telemetry.completed, 60 - 25);
    assert_eq!(resumed.records, uninterrupted.records);
    assert_eq!(resumed.summary(), uninterrupted.summary());

    // Resuming a finished campaign replays everything and runs nothing.
    let replayed = campaign.resume(&path).unwrap();
    assert_eq!(replayed.telemetry.completed, 0);
    assert_eq!(replayed.telemetry.replayed, 60);
    assert_eq!(replayed.summary(), uninterrupted.summary());

    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_rejects_a_checkpoint_from_another_campaign() {
    let path = temp_path("mismatch");
    dgemm_campaign()
        .run_with(&RunOptions {
            checkpoint: Some(path.clone()),
            budget: Some(5),
            ..RunOptions::default()
        })
        .unwrap();
    let mut other = dgemm_campaign();
    other.seed = 8;
    let err = other.resume(&path).unwrap_err();
    assert!(matches!(err, AccelError::Corrupt(_)), "{err:?}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn hanging_injection_is_recorded_within_the_deadline() {
    let deadline = Duration::from_millis(200);
    // One worker, `after: 1`: its first injection executes normally, the
    // next one wedges inside `execute_tile` until the watchdog fires and
    // a replacement worker (fresh instance, fresh execution budget)
    // finishes the campaign.
    let campaign = Campaign::new(
        DeviceConfig::kepler_k40(),
        KernelSpec::Pathological {
            n: 64,
            after: 1,
            mode: Failure::Hang,
        },
        4,
        2,
    )
    .with_workers(1)
    .with_deadline(deadline);

    let events = temp_path("hang-events");
    let t0 = Instant::now();
    let result = campaign
        .run_with(&RunOptions {
            events_out: Some(events.clone()),
            events_sample: 1,
            ..RunOptions::default()
        })
        .unwrap();
    let elapsed = t0.elapsed();

    assert!(result.is_complete(), "campaign must finish despite hangs");
    let watchdog_hangs: Vec<_> = result
        .records
        .iter()
        .filter(|r| r.site == WATCHDOG_SITE)
        .collect();
    assert!(
        !watchdog_hangs.is_empty(),
        "at least one injection must have hung; records: {:?}",
        result.records
    );
    for r in &watchdog_hangs {
        assert_eq!(r.outcome, InjectionOutcome::Hang);
    }
    assert_eq!(
        result.telemetry.watchdog_hangs,
        watchdog_hangs.len(),
        "telemetry and records must agree"
    );
    // The watchdog owns each hung index's provenance line: no strike
    // facts, since the injection never finished.
    let text = std::fs::read_to_string(&events).unwrap();
    let lines: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"site\":\"watchdog\""))
        .collect();
    let expected: Vec<String> = watchdog_hangs
        .iter()
        .map(|r| {
            format!(
                "{{\"e\":\"provenance\",\"i\":{},\"site\":\"watchdog\",\"delivered\":true,\
                 \"touched\":[],\"outcome\":\"HANG\",\"mismatches\":0,\"class\":\"none\"}}",
                r.index
            )
        })
        .collect();
    assert_eq!(lines, expected);
    std::fs::remove_file(&events).ok();
    // Wall time is bounded by one deadline per hang plus scheduling
    // slack — nowhere near the kernel's 20 s escape hatch.
    assert!(
        elapsed < Duration::from_secs(10),
        "watchdog must cut hangs off quickly, took {elapsed:?}"
    );
}

#[test]
fn panicking_injection_returns_a_typed_error() {
    let campaign = Campaign::new(
        DeviceConfig::kepler_k40(),
        KernelSpec::Pathological {
            n: 64,
            after: 1,
            mode: Failure::Panic,
        },
        4,
        2,
    )
    .with_workers(1);

    let err = campaign.run().unwrap_err();
    match err {
        AccelError::WorkerPanic(msg) => {
            assert!(
                msg.contains("pathological kernel panicked"),
                "panic payload must be preserved: {msg}"
            );
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
}

#[test]
fn first_error_wins_and_dispatch_stops() {
    // Four workers racing into a panicking kernel: whatever happens, the
    // reported error must be a WorkerPanic (never a poisoned-lock abort)
    // and the campaign must terminate.
    let campaign = Campaign::new(
        DeviceConfig::kepler_k40(),
        KernelSpec::Pathological {
            n: 64,
            after: 1,
            mode: Failure::Panic,
        },
        64,
        2,
    )
    .with_workers(4);

    let err = campaign.run().unwrap_err();
    assert!(matches!(err, AccelError::WorkerPanic(_)), "{err:?}");
}

#[test]
fn checkpointing_does_not_change_the_records() {
    let campaign = dgemm_campaign();
    let plain = campaign.run().unwrap();
    let path = temp_path("passthrough");
    let checkpointed = campaign
        .run_with(&RunOptions {
            checkpoint: Some(path.clone()),
            ..RunOptions::default()
        })
        .unwrap();
    assert_eq!(plain.records, checkpointed.records);
    // And the file round-trips to the same records.
    let read = radcrit_campaign::checkpoint::read_records(&path, &campaign).unwrap();
    let mut sorted = read;
    sorted.sort_by_key(|r| r.index);
    assert_eq!(sorted, plain.records);
    std::fs::remove_file(&path).ok();
}
