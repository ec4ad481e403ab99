//! Pins `epgs::config_fingerprint` for the configurations the evaluation
//! and the artifact store use. The fingerprint is half of every cache key
//! and names every on-disk store entry, so a change here silently orphans
//! persisted artifacts: it must be deliberate.

use epgs::{config_fingerprint, FrameworkConfig};

#[test]
fn fingerprints_of_the_shipped_configurations_are_pinned() {
    let cases: [(&str, FrameworkConfig, u64); 3] = [
        ("default", FrameworkConfig::default(), 0x0684_720d_ecc3_6036),
        (
            "bench",
            epgs_bench::bench_framework().config().clone(),
            0xbe96_f2dd_9e88_ee00,
        ),
        (
            "corpus",
            epgs_bench::corpus_framework().config().clone(),
            0xf599_00be_d55e_0c69,
        ),
    ];
    for (name, cfg, want) in cases {
        let got = config_fingerprint(&cfg);
        assert_eq!(
            got, want,
            "{name}: config fingerprint changed to {got:016x}"
        );
    }
}
