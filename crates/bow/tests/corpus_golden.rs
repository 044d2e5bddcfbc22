//! Golden snapshot of the corpus manifest head.
//!
//! Pins the first 16 manifest entries of the fixed-seed 64-kernel CI
//! corpus — per-kernel seed → content fingerprint — against a
//! checked-in table. The fingerprint is SHA-256 over the kernel's
//! binary encoding, so any drift in the generator, the dead-code
//! scrubber, the prologue pruner or the encoder shows up here as a
//! one-line diff before it silently re-labels every distribution in
//! the corpus reports.
//!
//! To re-bless after an *intentional* generator/pipeline change:
//!
//! ```text
//! BOW_BLESS=1 cargo test -p bow --test corpus_golden
//! ```

mod common;

use bow::corpus;
use std::fmt::Write as _;

/// The CI smoke population: the default master seed at count 64.
const COUNT: usize = 64;
/// Entries pinned from the head of the manifest.
const HEAD: usize = 16;

fn render(manifest: &corpus::Manifest) -> String {
    let mut out = String::from(
        "# Corpus manifest head: first 16 entries of generate(DEFAULT_SEED, 64).\n\
         # stratum/name seed fingerprint\n\
         # Regenerate with: BOW_BLESS=1 cargo test -p bow --test corpus_golden\n",
    );
    for e in manifest.entries.iter().take(HEAD) {
        writeln!(
            out,
            "{}/{} {:#018x} {}",
            e.stratum, e.name, e.seed, e.fingerprint
        )
        .expect("write to String");
    }
    out
}

#[test]
fn manifest_head_matches_goldens() {
    let manifest = corpus::generate(corpus::DEFAULT_SEED, COUNT);
    assert!(
        manifest.entries.len() >= HEAD,
        "corpus has at least {HEAD} entries"
    );
    // A mismatch means the generator pipeline is no longer reproducible.
    common::check_golden("corpus_manifest.txt", &render(&manifest));
}
