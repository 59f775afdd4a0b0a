//! Guards the black-box tracing contract: the collector is strictly
//! write-only, so a campaign produces byte-identical results with tracing
//! armed or not — verified here against the committed golden fixture the
//! seed campaign already answers to. CI additionally runs the `reproduce`
//! binary with and without `--trace-dir` and `cmp`s the CSVs across
//! processes.

use imufit::core::{Campaign, CampaignConfig};
use imufit::trace::BlackBox;

const GOLDEN: &str = include_str!("golden/campaign_small.csv");

/// A traced clone of the golden campaign: same seed, same matrix, plus an
/// armed collector writing into a scratch directory.
#[test]
fn traced_campaign_matches_golden_csv_byte_for_byte() {
    let dir = std::env::temp_dir().join(format!(
        "imufit-trace-noninterference-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let mut config = CampaignConfig::scaled(1, vec![2.0, 30.0], 2024);
    config.trace.enabled = true;
    config.trace_dir = Some(dir.clone());
    let results = Campaign::new(config).run();

    assert_eq!(results.records().len(), 43);
    assert_eq!(
        results.to_csv(),
        GOLDEN,
        "tracing must not change campaign_results.csv by a single byte"
    );

    // The faulty runs left decodable black boxes behind; every one must
    // round-trip through the decoder.
    let boxes: Vec<_> = std::fs::read_dir(&dir)
        .expect("trace dir was created")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "ifbb"))
        .collect();
    assert!(
        !boxes.is_empty(),
        "a campaign full of destructive faults must trip triggers"
    );
    for path in &boxes {
        let bytes = std::fs::read(path).unwrap();
        let bb = BlackBox::decode(&bytes)
            .unwrap_or_else(|e| panic!("{} does not decode: {e}", path.display()));
        assert!(
            !bb.events.is_empty(),
            "{} sealed without events",
            path.display()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An unknown `--trace-triggers` name exits 2 and lists every trigger
/// `TraceTrigger::parse` accepts.
#[test]
fn unknown_trace_trigger_lists_every_valid_one() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["--quick", "--trace-triggers", "bogus"])
        .output()
        .expect("reproduce runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let valid: Vec<&str> = imufit::trace::TraceTrigger::ALL
        .iter()
        .map(|t| t.label())
        .collect();
    assert!(
        stderr.contains(&format!(
            "unknown trigger 'bogus' (valid: {})",
            valid.join(", ")
        )),
        "{stderr}"
    );
}
