use bytes::BytesMut;
use freephish_benchmark::inputs::{
    self, index_of_url, stream_digest, FrameRing, LineGenerator, MissGenerator, Sizing, MISS_KNOWN,
    MISS_REPEAT,
};
use freephish_benchmark::loadgen::Generator;
use freephish_serve::{decode_bin_request, BinRequest};
use std::collections::HashSet;

const CONNS: usize = 2;

fn digests(seed: u64) -> [u64; 3] {
    let sizing = Sizing::SMOKE;
    let ring = FrameRing::generate(&inputs::world("hit_baked", seed), seed, &sizing);
    let world = inputs::world("line_mixed", seed);
    let lines = (0..CONNS)
        .map(|c| LineGenerator::new(&world, seed, &sizing, c, CONNS))
        .collect();
    let world = inputs::world("miss_stream", seed);
    let frames = (0..CONNS)
        .map(|c| MissGenerator::new(&world, seed, &sizing, c, CONNS))
        .collect();
    [
        ring.digest(),
        stream_digest::<LineGenerator>(lines, 500),
        stream_digest::<MissGenerator>(frames, 50),
    ]
}

#[test]
fn equal_seeds_give_equal_inputs_and_other_seeds_other_inputs() {
    assert_eq!(digests(7), digests(7));
    for (a, b) in digests(7).iter().zip(digests(8)) {
        assert_ne!(*a, b);
    }
}

#[test]
fn never_seen_urls_never_repeat_across_connections_or_frames() {
    let seed = 3;
    let world = inputs::world("miss_stream", seed);
    let mut seen = HashSet::new();
    let mut out = BytesMut::new();
    for conn in 0..CONNS {
        let mut generator = MissGenerator::new(&world, seed, &Sizing::SMOKE, conn, CONNS);
        for _ in 0..200 {
            generator.next(&mut out);
            let Ok(Some(BinRequest::CheckN(urls))) = decode_bin_request(&mut out) else {
                panic!("the generator writes CHECKN frames");
            };
            for url in &urls[MISS_KNOWN + MISS_REPEAT..] {
                let index = index_of_url(url).expect("a world URL carries its index");
                assert_eq!(
                    generator
                        .never_position(index)
                        .map(|k| generator.never_index(k)),
                    Some(index)
                );
                assert!(seen.insert(url.clone()), "{url} was sent twice");
            }
        }
    }
    assert_eq!(seen.len(), CONNS * 200 * 32);
}

#[test]
fn a_world_url_gives_back_its_index() {
    let world = inputs::world("any", 11);
    // Every FWB URL shape turns up within a few hundred sites.
    for index in (0..400u64).chain([1 << 33, (1 << 36) + 12_345]) {
        assert_eq!(index_of_url(&world.verdict_at(index).0), Some(index));
    }
    assert_eq!(index_of_url("https://not_base36!.weebly.com/"), None);
}
