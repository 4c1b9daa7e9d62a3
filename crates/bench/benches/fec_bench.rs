//! FEC substrate micro-benchmarks: convolutional encode, Viterbi
//! decode, interleaving, the composed codec, and the channel samplers.
//! (The CRC-32 kernel lives in `bench_suite`'s micro suite.)

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use fec::{BitBuf, BlockInterleaver, LinkCodec, Viterbi, CCSDS_K7};
use netsim::channel::{ErrorProcess, GilbertElliott, UniformBer};
use sim_core::{Duration, Instant, SeedSplitter};
use std::hint::black_box;

fn conv_benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("conv");
    let input = BitBuf::from_bytes(&[0x37u8; 128]); // 1024 info bits
    g.throughput(Throughput::Elements(1024));
    g.bench_function("encode_1kbit", |b| {
        b.iter(|| CCSDS_K7.encode(black_box(&input)))
    });
    let v = Viterbi::new(CCSDS_K7);
    let coded = CCSDS_K7.encode(&input);
    g.bench_function("viterbi_decode_1kbit", |b| {
        b.iter(|| v.decode(black_box(&coded)))
    });
    g.finish();
}

fn interleave_benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("interleave");
    let il = BlockInterleaver::new(32, 16);
    let data = BitBuf::from_bytes(&vec![0x5Au8; 256]); // 2048 bits
    g.throughput(Throughput::Elements(2048));
    g.bench_function("interleave_2kbit", |b| {
        b.iter(|| il.interleave(black_box(&data)))
    });
    let inter = il.interleave(&data);
    g.bench_function("deinterleave_2kbit", |b| {
        b.iter(|| il.deinterleave(black_box(&inter)))
    });
    g.finish();
}

fn codec_benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec");
    g.sample_size(20);
    let codec = LinkCodec::iframe_default();
    let info = BitBuf::from_bytes(&vec![0x11u8; 256]);
    let coded = codec.encode(&info);
    g.bench_function("encode_256B", |b| b.iter(|| codec.encode(black_box(&info))));
    g.bench_function("decode_256B", |b| {
        b.iter(|| codec.decode(black_box(&coded), info.len()))
    });
    g.finish();
}

fn channel_benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("channel");
    let split = SeedSplitter::new(9);
    g.bench_function("uniform_frame_error", |b| {
        b.iter_batched(
            || UniformBer::new(1e-6, split.stream(0)),
            |mut ch| {
                let mut t = Instant::ZERO;
                for _ in 0..1000 {
                    black_box(ch.frame_error(t, Duration::from_micros(50), 8192));
                    t += Duration::from_micros(55);
                }
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("gilbert_frame_error", |b| {
        b.iter_batched(
            || {
                GilbertElliott::new(
                    Duration::from_millis(100),
                    Duration::from_millis(5),
                    1e-7,
                    1e-3,
                    split.stream(1),
                )
            },
            |mut ch| {
                let mut t = Instant::ZERO;
                for _ in 0..1000 {
                    black_box(ch.frame_error(t, Duration::from_micros(50), 8192));
                    t += Duration::from_micros(55);
                }
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    conv_benches,
    interleave_benches,
    codec_benches,
    channel_benches
);
criterion_main!(benches);
