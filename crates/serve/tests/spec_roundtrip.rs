//! Property test: the job-spec wire format round-trips exactly over all
//! kernels, device presets, priorities and optional fields.

use proptest::prelude::*;

use radcrit_campaign::KernelSpec;
use radcrit_kernels::pathological::Failure;
use radcrit_obs::TraceContext;
use radcrit_serve::{DeviceKind, JobSpec, Priority};

fn kernels() -> impl Strategy<Value = KernelSpec> {
    prop_oneof![
        (1usize..512).prop_map(|n| KernelSpec::Dgemm { n }),
        ((1usize..8), (1usize..32))
            .prop_map(|(grid, particles)| KernelSpec::LavaMd { grid, particles }),
        ((1usize..256), (1usize..256), (1usize..128)).prop_map(|(rows, cols, iterations)| {
            KernelSpec::HotSpot {
                rows,
                cols,
                iterations,
            }
        }),
        ((1usize..256), (1usize..256), (1usize..128))
            .prop_map(|(rows, cols, steps)| KernelSpec::Shallow { rows, cols, steps }),
        ((1usize..64), (0usize..64), (0usize..2)).prop_map(|(n, after, mode)| {
            KernelSpec::Pathological {
                n,
                after,
                mode: if mode == 0 {
                    Failure::Hang
                } else {
                    Failure::Panic
                },
            }
        }),
    ]
}

fn devices() -> impl Strategy<Value = DeviceKind> {
    prop_oneof![Just(DeviceKind::K40), Just(DeviceKind::XeonPhi)]
}

fn priorities() -> impl Strategy<Value = Priority> {
    prop_oneof![
        Just(Priority::High),
        Just(Priority::Normal),
        Just(Priority::Low),
    ]
}

fn tolerances() -> impl Strategy<Value = Option<f64>> {
    prop_oneof![
        Just(None),
        (0.0f64..50.0).prop_map(Some),
        Just(Some(0.0)),
        Just(Some(2.0)),
    ]
}

fn deadlines() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), (1u64..3_600_000).prop_map(Some)]
}

fn traces() -> impl Strategy<Value = Option<TraceContext>> {
    prop_oneof![
        Just(None),
        (
            prop::collection::vec(
                prop_oneof![
                    Just('a'),
                    Just('7'),
                    Just(':'),
                    Just('/'),
                    Just('\\'),
                    Just('"'),
                    Just(' '),
                    Just('\n'),
                ],
                0..24
            ),
            0u64..64,
            0u64..u64::MAX
        )
            .prop_map(|(chars, shard, parent_span)| Some(TraceContext {
                campaign_id: chars.into_iter().collect(),
                shard,
                parent_span,
            })),
    ]
}

/// Derives a shard range valid for `injections` from raw entropy: none,
/// or a non-empty in-range `[start, end)` slice.
fn shard_for(injections: usize, pick: usize, a: u64, b: u64) -> Option<(usize, usize)> {
    if pick == 0 {
        return None;
    }
    let x = (a as usize) % injections;
    let y = (b as usize) % injections;
    Some((x.min(y), x.max(y) + 1))
}

proptest! {
    /// `parse(to_json(spec)) == spec` for every representable spec.
    #[test]
    fn job_spec_wire_format_round_trips(
        device in devices(),
        kernel in kernels(),
        scale in 1usize..9,
        injections in 1usize..100_000,
        seed in 0u64..u64::MAX,
        knobs in (tolerances(), 0usize..17, deadlines(), priorities(), 0u64..64),
        shard_entropy in (0usize..3, 0u64..u64::MAX, 0u64..u64::MAX),
        trace in traces(),
    ) {
        let (tolerance_pct, workers, deadline_ms, priority, events_sample) = knobs;
        let shard = shard_for(injections, shard_entropy.0, shard_entropy.1, shard_entropy.2);
        let spec = JobSpec {
            device,
            scale,
            kernel,
            injections,
            seed,
            tolerance_pct,
            workers,
            deadline_ms,
            priority,
            events_sample,
            shard,
            trace,
        };
        let wire = spec.to_json();
        let parsed = JobSpec::parse(&wire).unwrap();
        prop_assert_eq!(&parsed, &spec, "wire form: {}", wire);
        // The canonical form is a fixed point of parse ∘ render.
        prop_assert_eq!(parsed.to_json(), wire);
    }
}

/// Malformed and version-skewed specs are rejected with config errors.
#[test]
fn bad_specs_are_rejected() {
    let good = JobSpec::new(DeviceKind::K40, KernelSpec::Dgemm { n: 32 }, 10, 7).to_json();
    for bad in [
        "not json".to_owned(),
        "{}".to_owned(),
        good.replace("\"radcrit_job\":1", "\"radcrit_job\":99"),
        good.replace("\"k40\"", "\"gtx480\""),
        good.replace("\"injections\":10", "\"injections\":0"),
        good.replace("\"dgemm\"", "\"fft\""),
        good.replace("\"shard\":null", "\"shard\":[4,4]"),
        good.replace("\"shard\":null", "\"shard\":[0,11]"),
        good.replace("\"shard\":null", "\"shard\":[3]"),
        good.replace("\"shard\":null", "\"shard\":\"0-5\""),
        good.replace("\"trace\":null", "\"trace\":[1]"),
        good.replace("\"trace\":null", "\"trace\":{\"campaign_id\":\"x\"}"),
        good.replace(
            "\"trace\":null",
            "\"trace\":{\"campaign_id\":\"x\",\"shard\":0,\"parent_span\":-1}",
        ),
    ] {
        assert!(
            matches!(
                JobSpec::parse(&bad),
                Err(radcrit_serve::ServeError::Config(_))
            ),
            "should reject: {bad}"
        );
    }
}

/// A spec written before the retired per-job scalar pin still parses —
/// daemon journals from then replay — and reads as the same spec without
/// it: the field is ignored, whatever it held.
#[test]
fn specs_with_the_retired_force_scalar_field_still_parse() {
    let spec = JobSpec::new(DeviceKind::K40, KernelSpec::Dgemm { n: 32 }, 10, 7);
    let wire = spec.to_json();
    for old in ["true", "false"] {
        let line = wire.replace(
            "\"shard\":null,",
            &format!("\"shard\":null,\"force_scalar\":{old},"),
        );
        assert_ne!(line, wire);
        assert_eq!(JobSpec::parse(&line).unwrap(), spec, "{line}");
    }
}
