//! B: wall-clock cost of simulating IPC round trips on each platform
//! model (simulator throughput, complementing `exp_ipc_overhead`'s
//! virtual-time numbers for the same fixtures).

use criterion::{criterion_group, criterion_main, Criterion};

use bas_bench::ipc::IpcFixture;
use bas_sim::clock::CostModel;

const ROUNDTRIPS: u64 = 1_000;

fn bench_ipc(c: &mut Criterion) {
    let mut group = c.benchmark_group("ipc_roundtrips_1k");
    for (name, fixture) in [
        ("minix_sendrec", IpcFixture::MinixRoundTrip),
        ("sel4_call_reply", IpcFixture::Sel4RoundTrip),
        ("linux_mq_roundtrip", IpcFixture::LinuxRoundTrip),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                fixture
                    .run(ROUNDTRIPS, CostModel::default())
                    .metrics
                    .ipc_messages
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ipc);
criterion_main!(benches);
