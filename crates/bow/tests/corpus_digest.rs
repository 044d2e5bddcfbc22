//! Full-size determinism pin of corpus generation.
//!
//! `corpus_golden` pins the head of the 64-kernel CI corpus; this pins
//! whole 1000-kernel corpora. Each row is the SHA-256 of
//! `generate(seed, 1000).to_json().to_string_pretty()`: every entry's
//! order, id, seed, traits and fingerprint, and every stratum's rejected
//! count. Generation draws its candidates on every available core, so a
//! mismatch here means the manifest came to depend on the worker count
//! or on completion order, or the generator pipeline itself drifted.
//!
//! The digests equal `sha256sum` of a `bow-cli corpus gen --seed S`
//! manifest with its trailing newline dropped. Re-pin them only after an
//! intentional generator or pipeline change, and say so where the change
//! is recorded.

use bow::corpus;
use bow::util::hash::sha256_hex;

const COUNT: usize = 1000;

const PINNED: [(u64, &str); 4] = [
    (
        1,
        "6b5c99db448b3222d837b8c98f4d837b1d55b07fc8737ac4654b51abf21c925f",
    ),
    (
        2,
        "9607c156adf538e90e3cbb2f17e3aa5e048521903f71def0f36e40502c3189d6",
    ),
    (
        3,
        "365203ec36f28333790caf5ce00c70b448723406c0737b23c3b4e6fe8d59f9f1",
    ),
    (
        corpus::DEFAULT_SEED,
        "bc3eb7a7041aba7008f8e2ec1b898a9b6fcfaba98ba505d039ff4444b3d78a81",
    ),
];

#[test]
fn thousand_kernel_manifests_match_their_pinned_digests() {
    let mut drifted = Vec::new();
    for (seed, want) in PINNED {
        let text = corpus::generate(seed, COUNT).to_json().to_string_pretty();
        let got = sha256_hex(text.as_bytes());
        if got != want {
            drifted.push(format!("seed {seed:#x}: {got} (pinned {want})"));
        }
    }
    assert!(
        drifted.is_empty(),
        "corpus manifests drifted:\n{}",
        drifted.join("\n")
    );
}
