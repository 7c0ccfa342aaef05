//! Golden bitstream pin: FNV-1a digests and byte totals of the encoded
//! stream and of the decoded frames, recorded from the scalar encoder
//! before the hot loops were rewritten. Any optimisation of
//! `ff_video::codec` must leave every row unchanged (see the
//! "Bit-exactness contract" in the codec module docs); a change that means
//! to alter bitstreams re-records the table and says so.

use ff_video::codec::{Decoder, Encoder, EncoderConfig};
use ff_video::scene::{Scene, SceneConfig};
use ff_video::{Frame, Resolution};

const FPS: f64 = 15.0;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn clip(res: Resolution, n: usize) -> Vec<Frame> {
    let cfg = SceneConfig {
        resolution: res,
        fps: FPS,
        seed: 7,
        pedestrian_rate: 0.05,
        car_rate: 0.03,
        ..Default::default()
    };
    Scene::new(cfg).take(n).map(|(f, _)| f).collect()
}

/// `(stream digest, stream bytes, decoded digest, decoded bytes)` of one
/// clip through one config. Frame `n/2` is dropped and the encoder told to
/// restart the GOP after it, as the pipeline does after a filtering gap.
fn run(cfg: EncoderConfig, frames: &[Frame]) -> (u64, usize, u64, usize) {
    let mut enc = Encoder::new(cfg);
    let mut dec = Decoder::new();
    let (mut stream, mut decoded) = (Fnv::new(), Fnv::new());
    let (mut stream_bytes, mut decoded_bytes) = (0, 0);
    let gap = frames.len() / 2;
    for (i, f) in frames.iter().enumerate() {
        if i == gap {
            enc.force_keyframe();
            continue;
        }
        let e = enc.encode(f);
        stream.bytes(&(e.data.len() as u32).to_le_bytes());
        stream.bytes(&e.data);
        stream_bytes += e.data.len();
        let d = dec.decode(&e).expect("own stream decodes");
        decoded.bytes(d.data());
        decoded_bytes += d.data().len();
    }
    (stream.0, stream_bytes, decoded.0, decoded_bytes)
}

type Row = (&'static str, (u64, usize, u64, usize));

const GOLDEN: [Row; 8] = [
    (
        "bitrate50k 120x67",
        (0xb253_9815_e221_4d7b, 16058, 0xa52d_87ea_e7d1_df10, 940680),
    ),
    (
        "qp20 120x67",
        (0x3cdc_29f4_fb97_697e, 23538, 0x9ce0_005f_8787_5b04, 940680),
    ),
    (
        "bitrate50k 64x32",
        (0xad51_b10d_b810_4b0a, 12677, 0x5b29_aa37_b120_669b, 239616),
    ),
    (
        "qp20 64x32",
        (0x469d_eb2e_41b8_ecb6, 5270, 0x3684_4e6f_031d_86b8, 239616),
    ),
    (
        "bitrate50k 37x21",
        (0x0222_b219_791e_57de, 9177, 0x6c15_e565_825e_de29, 90909),
    ),
    (
        "qp20 37x21",
        (0xe31c_2fd5_099b_0ae3, 4216, 0x69c2_b215_8148_e7e5, 90909),
    ),
    (
        "bitrate50k 480x270",
        (0x6ed2_8db9_80ad_2cc1, 21401, 0x25b7_4713_d5e6_5159, 2721600),
    ),
    (
        "qp20 480x270",
        (0xf627_c851_1978_4455, 40808, 0xa172_7c06_6702_8414, 2721600),
    ),
];

#[test]
fn encoded_streams_and_decoded_frames_match_the_recorded_digests() {
    let sizes = [(120, 67, 40), (64, 32, 40), (37, 21, 40), (480, 270, 8)];
    let mut actual = Vec::new();
    for (w, h, n) in sizes {
        let res = Resolution::new(w, h);
        let frames = clip(res, n);
        let mut qp = EncoderConfig::with_qp(res, FPS, 20);
        qp.gop = 15;
        for (name, cfg) in [
            (
                "bitrate50k",
                EncoderConfig::with_bitrate(res, FPS, 50_000.0),
            ),
            ("qp20", qp),
        ] {
            actual.push((format!("{name} {w}x{h}"), run(cfg, &frames)));
        }
    }
    let expected: Vec<_> = GOLDEN.iter().map(|(n, r)| (n.to_string(), *r)).collect();
    assert_eq!(actual, expected, "actual rows:\n{actual:#x?}");
}
