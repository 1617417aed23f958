//! Criterion benchmarks of the fault-injection path: site sampling and
//! the overhead of an injected execution over a golden one (the
//! instrumentation tax of the TileCtx op wrappers and the cache model's
//! corruption fast path).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use radcrit_accel::engine::Engine;
use radcrit_accel::strike::{StrikeSpec, StrikeTarget};
use radcrit_campaign::config::KernelSpec;
use radcrit_campaign::presets;
use radcrit_faults::sampler::FaultSampler;

fn bench_sampling(c: &mut Criterion) {
    let device = presets::k40();
    let engine = Engine::new(device.clone());
    let spec = KernelSpec::Dgemm { n: 64 };
    let mut kernel = spec.build(1).expect("valid kernel");
    let golden = engine.golden(kernel.as_mut()).expect("golden");
    let sampler = FaultSampler::new(&device, &golden.profile);

    c.bench_function("sample_injection_plan", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| std::hint::black_box(sampler.sample(&mut rng)));
    });
}

fn bench_injected_vs_golden(c: &mut Criterion) {
    let device = presets::k40();
    let engine = Engine::new(device.clone());
    let spec = KernelSpec::Dgemm { n: 64 };
    let mut kernel = spec.build(1).expect("valid kernel");

    let mut group = c.benchmark_group("dgemm64_run");
    group.sample_size(20);
    group.bench_function("golden", |b| {
        b.iter(|| {
            let out = engine.golden(kernel.as_mut()).expect("golden run");
            std::hint::black_box(out.output.len())
        });
    });
    group.bench_function("with_l2_strike", |b| {
        let strike = StrikeSpec::new(3, StrikeTarget::L2 { mask: 1 << 40 });
        let mut rng = StdRng::seed_from_u64(9);
        b.iter(|| {
            let out = engine
                .run(kernel.as_mut(), &[strike], &mut rng, None, None)
                .expect("faulty run");
            std::hint::black_box(out.output.len())
        });
    });
    group.bench_function("with_fpu_strike", |b| {
        let strike = StrikeSpec::new(
            3,
            StrikeTarget::Fpu {
                mask: 1 << 40,
                op_index: 1000,
            },
        );
        let mut rng = StdRng::seed_from_u64(9);
        b.iter(|| {
            let out = engine
                .run(kernel.as_mut(), &[strike], &mut rng, None, None)
                .expect("faulty run");
            std::hint::black_box(out.output.len())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_sampling, bench_injected_vs_golden);
criterion_main!(benches);
