//! Shape tests for every paper artifact: each table and figure is
//! regenerated at the spans `repro` uses, and every claim it states must
//! hold over the eight campaign seeds (once for the seed-independent
//! routes and for the campaign, which spans the seeds itself).
//!
//! The thresholds are the claims' bands in `probenet_bench`; `repro`
//! prints the same claims, so a miss here reads exactly like its line
//! there.

use probenet_bench::{claims_over_seeds, DEFAULT_SEED};

fn assert_claims_hold(artifact: &str) {
    let claims = claims_over_seeds(artifact, DEFAULT_SEED).expect("known artifact");
    assert!(!claims.is_empty(), "{artifact} states no claim");
    let missed: Vec<String> = claims
        .iter()
        .filter(|(_, c)| !c.holds())
        .map(|(seed, c)| format!("seed {seed}: {c}"))
        .collect();
    assert!(
        missed.is_empty(),
        "{artifact}: {} of {} claims missed\n{}",
        missed.len(),
        claims.len(),
        missed.join("\n")
    );
}

#[test]
fn table1_shape() {
    assert_claims_hold("table1");
}

#[test]
fn table2_shape() {
    assert_claims_hold("table2");
}

#[test]
fn figure1_shape() {
    assert_claims_hold("fig1");
}

#[test]
fn figure2_shape() {
    assert_claims_hold("fig2");
}

#[test]
fn figure4_shape() {
    assert_claims_hold("fig4");
}

#[test]
fn figure5_shape() {
    assert_claims_hold("fig5");
}

#[test]
fn figure6_shape() {
    assert_claims_hold("fig6");
}

#[test]
fn figure8_shape() {
    assert_claims_hold("fig8");
}

#[test]
fn figure9_shape() {
    assert_claims_hold("fig9");
}

#[test]
fn table3_shape() {
    assert_claims_hold("table3");
}

#[test]
fn model_shape() {
    assert_claims_hold("model");
}

#[test]
fn campaign_shape() {
    assert_claims_hold("campaign");
}
