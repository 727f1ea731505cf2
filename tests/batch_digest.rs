//! Golden digests of batch Algorithm 2 (`Hera::run`).
//!
//! Each configuration's output — the partition, the deterministic
//! `RunStats` (wall-clock fields and the host-dependent thread count
//! zeroed) and the deterministic view of the journal — hashes to a value
//! recorded from the reference implementation. Any change to what the batch loop scans, prunes,
//! verifies, votes on or merges, or to the order it does so in, moves
//! at least one of the three digests.

use hera::{BoundMode, Hera, HeraConfig, Recorder};
use hera_datagen::{CorruptionConfig, DatagenConfig, Generator};

/// The 200-record generated dataset of `tests/streaming.rs`.
fn dataset() -> hera::Dataset {
    Generator::new(DatagenConfig {
        name: "stream-test".into(),
        seed: 17,
        n_records: 200,
        n_entities: 30,
        n_attrs: 12,
        n_sources: 3,
        min_source_attrs: 7,
        max_source_attrs: 10,
        corruption: CorruptionConfig::moderate(),
        domain: Default::default(),
    })
    .generate()
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(partition, stats, journal)` digests of one traced batch run.
fn digests(cfg: HeraConfig, ds: &hera::Dataset) -> (u64, u64, u64) {
    let (rec, buf) = Recorder::to_memory();
    let result = Hera::builder(cfg).recorder(rec).build().run(ds).unwrap();
    let partition = format!("{:?}", result.entity_of);
    let mut stats = result.stats;
    stats.index_build_time = Default::default();
    stats.resolve_time = Default::default();
    stats.verify_time = Default::default();
    stats.threads = 0;
    let stats = stats.to_json().to_string_compact();
    let journal = hera::obs::deterministic_view(&buf.contents());
    (fnv1a(&partition), fnv1a(&stats), fnv1a(&journal))
}

#[test]
fn motivating_example_matches_recorded_digests() {
    let ds = hera::types::motivating_example();
    assert_eq!(
        digests(HeraConfig::paper_example(), &ds),
        (
            136_882_487_560_510_393,
            17_694_348_312_688_261_339,
            12_218_992_054_115_386_479
        ),
    );
}

#[test]
fn generated_dataset_matches_recorded_digests() {
    let ds = dataset();
    let base = || HeraConfig::new(0.5, 0.5);
    // Every configuration ends at the same partition; thread count
    // changes nothing at all.
    const PARTITION: u64 = 15_266_163_649_214_895_761;
    const DEFAULT: (u64, u64, u64) = (
        PARTITION,
        8_648_603_219_162_358_851,
        10_535_503_799_915_937_821,
    );
    let cases: [(&str, HeraConfig, (u64, u64, u64)); 7] = [
        ("default", base(), DEFAULT),
        (
            "no_voting",
            base().without_schema_voting(),
            (
                PARTITION,
                12_413_646_564_434_951_532,
                12_590_392_362_255_799_271,
            ),
        ),
        (
            "paper_bounds",
            base().with_bound_mode(BoundMode::Paper),
            (
                PARTITION,
                10_392_667_799_164_714_479,
                15_888_238_871_534_698_102,
            ),
        ),
        (
            "greedy",
            base().with_greedy_matching(),
            (
                PARTITION,
                12_165_390_864_822_593_293,
                12_086_846_953_364_631_619,
            ),
        ),
        (
            "no_cache",
            base().without_sim_cache(),
            (PARTITION, 1_784_008_283_680_302_315, DEFAULT.2),
        ),
        ("threads_1", base().with_threads(1), DEFAULT),
        ("threads_4", base().with_threads(4), DEFAULT),
    ];
    let mut failures = Vec::new();
    for (name, cfg, want) in cases {
        let got = digests(cfg, &ds);
        if got != want {
            failures.push(format!("{name}: got {got:?}, want {want:?}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
