//! Adversarial tests of the `.taxo` artifact: a checkpoint must round
//! trip bit-for-bit, and every way of damaging the file must be rejected
//! with the *right* error — never a panic, never a garbage model.

use taxorec_core::{TaxoRec, TaxoRecConfig};
use taxorec_data::{generate_preset, Preset, Recommender, Scale, Split};
use taxorec_serve::{Checkpoint, CheckpointError, FORMAT_VERSION, MAGIC};

fn trained_checkpoint() -> Checkpoint {
    let dataset = generate_preset(Preset::Ciao, Scale::Tiny);
    let split = Split::standard(&dataset);
    let mut cfg = TaxoRecConfig::fast_test();
    cfg.epochs = 4;
    let mut model = TaxoRec::new(cfg);
    model.fit(&dataset, &split);
    Checkpoint::from_model(&model)
        .with_dataset(&dataset)
        .with_seen_items(&split.train)
}

fn tmp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("taxorec-test-{}-{name}", std::process::id()))
}

#[test]
fn round_trip_is_bit_identical() {
    let ckpt = trained_checkpoint();
    let bytes = ckpt.to_bytes();
    let reloaded = Checkpoint::from_bytes(&bytes).expect("round trip");
    // Serializing the reloaded checkpoint must reproduce the same bytes:
    // this covers every field, including float bit patterns, in one shot.
    assert_eq!(reloaded.to_bytes(), bytes, "byte-level round trip");
    // Spot-check semantics too.
    assert_eq!(reloaded.state.name, ckpt.state.name);
    assert_eq!(reloaded.state.alphas, ckpt.state.alphas);
    assert_eq!(reloaded.seen_items, ckpt.seen_items);
    assert_eq!(
        reloaded.state.taxonomy.is_some(),
        ckpt.state.taxonomy.is_some()
    );
}

#[test]
fn seal_gives_the_identity_the_written_bytes_carry() {
    let mut ckpt = trained_checkpoint()
        .with_retrieval_index(&taxorec_retrieval::IndexConfig::default())
        .expect("index");
    ckpt.journal_cursor = Some(17);
    let bytes = ckpt.to_bytes();
    let loaded = Checkpoint::from_bytes(&bytes).expect("round trip");
    assert_eq!(Some(ckpt.seal()), loaded.artifact);
    assert_eq!(ckpt.seal().bytes, bytes.len() as u64);
}

#[test]
fn an_index_root_past_the_catalogue_is_rejected() {
    // The root may end before the catalogue (appended items form the
    // tail), never after it.
    let mut ckpt = trained_checkpoint()
        .with_retrieval_index(&taxorec_retrieval::IndexConfig::default())
        .expect("index");
    let parts = ckpt.index.as_mut().expect("index parts");
    parts.end[0] = parts.n_items as u32 + 1;
    match Checkpoint::from_bytes(&ckpt.to_bytes()) {
        Err(CheckpointError::Invalid(msg)) => assert!(msg.contains("retrieval index"), "{msg}"),
        other => panic!("expected Invalid, got {other:?}"),
    }
}

#[test]
fn save_and_load_file_round_trip() {
    let ckpt = trained_checkpoint();
    let path = tmp_path("roundtrip.taxo");
    ckpt.save(&path).expect("save");
    let reloaded = Checkpoint::load_file(&path).expect("load");
    assert_eq!(reloaded.to_bytes(), ckpt.to_bytes());
    std::fs::remove_file(&path).ok();
}

#[test]
fn wrong_magic_is_not_a_checkpoint() {
    let mut bytes = trained_checkpoint().to_bytes();
    bytes[0..4].copy_from_slice(b"NOPE");
    match Checkpoint::from_bytes(&bytes) {
        Err(CheckpointError::BadMagic { found }) => assert_eq!(&found, b"NOPE"),
        other => panic!("expected BadMagic, got {other:?}"),
    }
    // A completely unrelated file (e.g. a text file) is also BadMagic.
    let text = b"This is not a checkpoint, it is 42 bytes long.....";
    assert!(matches!(
        Checkpoint::from_bytes(text),
        Err(CheckpointError::BadMagic { .. })
    ));
}

#[test]
fn unsupported_version_is_rejected() {
    let mut bytes = trained_checkpoint().to_bytes();
    let future = FORMAT_VERSION + 1;
    bytes[4..6].copy_from_slice(&future.to_le_bytes());
    match Checkpoint::from_bytes(&bytes) {
        Err(CheckpointError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, future);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    // Version 0 never existed.
    bytes[4..6].copy_from_slice(&0u16.to_le_bytes());
    assert!(matches!(
        Checkpoint::from_bytes(&bytes),
        Err(CheckpointError::UnsupportedVersion { found: 0, .. })
    ));
}

#[test]
fn truncation_anywhere_is_rejected() {
    let bytes = trained_checkpoint().to_bytes();
    // Shorter than even the fixed header + trailer.
    for n in [0, 1, 4, 19] {
        assert!(
            matches!(
                Checkpoint::from_bytes(&bytes[..n]),
                Err(CheckpointError::TooShort { .. })
            ),
            "prefix of {n} bytes"
        );
    }
    // Header intact but payload/trailer cut off at several depths.
    for frac in [30, 50, 90, 99] {
        let n = (bytes.len() * frac) / 100;
        assert!(
            matches!(
                Checkpoint::from_bytes(&bytes[..n]),
                Err(CheckpointError::Truncated { .. })
            ),
            "truncated to {frac}% ({n} bytes)"
        );
    }
    // Off-by-one: all but the last byte.
    assert!(matches!(
        Checkpoint::from_bytes(&bytes[..bytes.len() - 1]),
        Err(CheckpointError::Truncated { .. })
    ));
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut bytes = trained_checkpoint().to_bytes();
    bytes.extend_from_slice(b"extra");
    assert!(matches!(
        Checkpoint::from_bytes(&bytes),
        Err(CheckpointError::Corrupt(_))
    ));
}

#[test]
fn any_flipped_payload_byte_fails_the_checksum() {
    let bytes = trained_checkpoint().to_bytes();
    let header = 16;
    let payload_len = bytes.len() - header - 4;
    // Flip one bit at a spread of payload offsets (start, interior, end).
    for &off in &[0, 1, payload_len / 3, payload_len / 2, payload_len - 1] {
        let mut damaged = bytes.clone();
        damaged[header + off] ^= 0x01;
        match Checkpoint::from_bytes(&damaged) {
            Err(CheckpointError::ChecksumMismatch { stored, computed }) => {
                assert_ne!(stored, computed, "offset {off}")
            }
            other => {
                panic!("flip at payload offset {off}: expected ChecksumMismatch, got {other:?}")
            }
        }
    }
    // Flipping the stored CRC itself is also a mismatch.
    let mut damaged = bytes.clone();
    let last = damaged.len() - 1;
    damaged[last] ^= 0xFF;
    assert!(matches!(
        Checkpoint::from_bytes(&damaged),
        Err(CheckpointError::ChecksumMismatch { .. })
    ));
}

#[test]
fn corrupted_header_flags_are_rejected() {
    let mut bytes = trained_checkpoint().to_bytes();
    bytes[6] = 0x01; // reserved flags must be zero
    assert!(matches!(
        Checkpoint::from_bytes(&bytes),
        Err(CheckpointError::Corrupt(_))
    ));
}

#[test]
fn missing_file_is_an_io_error_with_the_path() {
    let path = tmp_path("does-not-exist.taxo");
    match Checkpoint::load_file(&path) {
        Err(CheckpointError::Io(msg)) => {
            assert!(msg.contains("does-not-exist"), "{msg}")
        }
        other => panic!("expected Io, got {other:?}"),
    }
}

#[test]
fn error_messages_are_precise() {
    let ckpt = trained_checkpoint();
    let bytes = ckpt.to_bytes();
    let short = &bytes[..10];
    let msg = Checkpoint::from_bytes(short).unwrap_err().to_string();
    assert!(msg.contains("10 bytes"), "{msg}");
    let mut wrong_ver = bytes.clone();
    wrong_ver[4..6].copy_from_slice(&9u16.to_le_bytes());
    let msg = Checkpoint::from_bytes(&wrong_ver).unwrap_err().to_string();
    assert!(msg.contains("version 9"), "{msg}");
    assert!(msg.contains(&FORMAT_VERSION.to_string()), "{msg}");
}

#[test]
fn magic_constant_is_stable() {
    // The on-disk contract: changing either of these breaks every
    // artifact in the wild, so a test must force the conversation.
    assert_eq!(&MAGIC, b"TAXO");
    assert_eq!(FORMAT_VERSION, 1);
}
