//! Communication-cost accounting.
//!
//! Besides compute, the paper argues FedFT reduces the *communication*
//! overhead: because the feature extractor `ϕ` is frozen and identical on
//! every client, only the upper part `θ` is exchanged each round. This module
//! quantifies that saving: it models the bytes a client uploads/downloads per
//! round as a function of the freeze level, and provides a compact wire
//! encoding of a [`ClientUpdate`] so the saving can also be demonstrated
//! end-to-end.

use crate::client::ClientUpdate;
use crate::{FlError, Result};
use fedft_nn::{BlockNet, FreezeLevel, ParamVector};
use serde::{Deserialize, Serialize};

/// Bytes used to encode one `f32` parameter on the wire.
const BYTES_PER_PARAM: usize = 4;
/// Fixed per-message header bytes: client id (8), selected count (8), local
/// count (8), train loss (4), compute seconds (8), cached compute seconds
/// (8), payload length (8).
const HEADER_BYTES: usize = 52;

/// Per-round communication volume for one client, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundTraffic {
    /// Bytes downloaded from the server (the trainable part of the global
    /// model).
    pub download_bytes: usize,
    /// Bytes uploaded to the server (the updated trainable part plus the
    /// update metadata).
    pub upload_bytes: usize,
}

/// Computes the per-round traffic of a client training `model` under the
/// given freeze level.
///
/// Only the trainable parameters are exchanged; the frozen feature extractor
/// is distributed once before federated learning starts and never again,
/// exactly as in the paper's setup.
pub fn round_traffic(model: &BlockNet, freeze: FreezeLevel) -> RoundTraffic {
    let trainable = model.trainable_parameter_count(freeze);
    RoundTraffic {
        download_bytes: trainable * BYTES_PER_PARAM + HEADER_BYTES,
        upload_bytes: trainable * BYTES_PER_PARAM + HEADER_BYTES,
    }
}

/// Compact little-endian wire encoding of a [`ClientUpdate`].
///
/// Layout: `client_id (u64) | selected (u64) | local (u64) | train_loss (f32)
/// | compute_seconds (f64) | cached_compute_seconds (f64) | theta_len (u64) |
/// theta (f32 × len)`.
pub fn encode_update(update: &ClientUpdate) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + update.theta.len() * BYTES_PER_PARAM);
    out.extend_from_slice(&(update.client_id as u64).to_le_bytes());
    out.extend_from_slice(&(update.selected_samples as u64).to_le_bytes());
    out.extend_from_slice(&(update.local_samples as u64).to_le_bytes());
    out.extend_from_slice(&update.train_loss.to_le_bytes());
    out.extend_from_slice(&update.compute_seconds.to_le_bytes());
    out.extend_from_slice(&update.cached_compute_seconds.to_le_bytes());
    out.extend_from_slice(&(update.theta.len() as u64).to_le_bytes());
    for value in update.theta.values() {
        out.extend_from_slice(&value.to_le_bytes());
    }
    out
}

/// A cursor over an encoded update. Every read is bounds-checked and
/// returns an error on a short buffer, so no input makes the decoder panic.
struct WireReader<'a> {
    rest: &'a [u8],
    len: usize,
}

impl<'a> WireReader<'a> {
    fn truncated(&self, needed: usize) -> FlError {
        FlError::InvalidConfig {
            what: format!(
                "truncated update message: needed {needed} bytes at offset {}, have {}",
                self.len - self.rest.len(),
                self.len
            ),
        }
    }

    /// The next `n` bytes; `n` may come from a hostile length field.
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let (head, tail) = self
            .rest
            .split_at_checked(n)
            .ok_or_else(|| self.truncated(n))?;
        self.rest = tail;
        Ok(head)
    }

    /// The next `N` bytes, as one fixed-size field.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let (head, tail) = self
            .rest
            .split_first_chunk()
            .ok_or_else(|| self.truncated(N))?;
        self.rest = tail;
        Ok(*head)
    }
}

/// Decodes a [`ClientUpdate`] previously encoded with [`encode_update`].
///
/// # Errors
///
/// Returns [`FlError::InvalidConfig`] when the buffer is truncated or its
/// declared length is inconsistent with the payload.
pub fn decode_update(bytes: &[u8]) -> Result<ClientUpdate> {
    let mut reader = WireReader {
        rest: bytes,
        len: bytes.len(),
    };
    let client_id = u64::from_le_bytes(reader.take_array()?) as usize;
    let selected_samples = u64::from_le_bytes(reader.take_array()?) as usize;
    let local_samples = u64::from_le_bytes(reader.take_array()?) as usize;
    let train_loss = f32::from_le_bytes(reader.take_array()?);
    let compute_seconds = f64::from_le_bytes(reader.take_array()?);
    let cached_compute_seconds = f64::from_le_bytes(reader.take_array()?);
    let theta_len = u64::from_le_bytes(reader.take_array()?) as usize;
    // Saturating, not wrapping: a byte count past `usize::MAX` cannot fit
    // the buffer, and `take` rejects it.
    let payload = reader.take(theta_len.saturating_mul(BYTES_PER_PARAM))?;
    if !reader.rest.is_empty() {
        return Err(FlError::InvalidConfig {
            what: format!(
                "trailing {} bytes after the update payload",
                reader.rest.len()
            ),
        });
    }
    // The payload is `theta_len` whole chunks, so the remainder is empty.
    let (chunks, _) = payload.as_chunks::<BYTES_PER_PARAM>();
    Ok(ClientUpdate {
        client_id,
        theta: ParamVector::from_values(chunks.iter().map(|&c| f32::from_le_bytes(c)).collect()),
        selected_samples,
        local_samples,
        train_loss,
        compute_seconds,
        cached_compute_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedft_nn::BlockNetConfig;

    fn model() -> BlockNet {
        BlockNet::new(&BlockNetConfig::new(8, 5).with_hidden(16, 16, 16), 1)
    }

    fn update() -> ClientUpdate {
        ClientUpdate {
            client_id: 3,
            theta: ParamVector::from_values(vec![0.5, -1.25, 3.0]),
            selected_samples: 12,
            local_samples: 120,
            train_loss: 0.75,
            compute_seconds: 1.5,
            cached_compute_seconds: 0.5,
        }
    }

    #[test]
    fn traffic_shrinks_with_freezing() {
        let m = model();
        let full = round_traffic(&m, FreezeLevel::Full);
        let moderate = round_traffic(&m, FreezeLevel::Moderate);
        let classifier = round_traffic(&m, FreezeLevel::Classifier);
        assert!(full.upload_bytes > moderate.upload_bytes);
        assert!(moderate.upload_bytes > classifier.upload_bytes);
        assert_eq!(full.download_bytes, full.upload_bytes);
    }

    #[test]
    fn traffic_matches_parameter_counts() {
        let m = model();
        let traffic = round_traffic(&m, FreezeLevel::Moderate);
        let expected =
            m.trainable_parameter_count(FreezeLevel::Moderate) * BYTES_PER_PARAM + HEADER_BYTES;
        assert_eq!(traffic.download_bytes, expected);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let original = update();
        let bytes = encode_update(&original);
        assert_eq!(bytes.len(), HEADER_BYTES + 3 * BYTES_PER_PARAM);
        let decoded = decode_update(&bytes).unwrap();
        assert_eq!(decoded, original);
    }

    #[test]
    fn decode_rejects_truncated_and_padded_messages() {
        let bytes = encode_update(&update());
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_update(&padded).is_err());
        // Every proper prefix of a real encoding, the empty one included,
        // is an error and not a panic.
        for len in 0..bytes.len() {
            let decoded = std::panic::catch_unwind(|| decode_update(&bytes[..len]))
                .unwrap_or_else(|_| panic!("prefix of {len} bytes panicked"));
            assert!(decoded.is_err(), "prefix of {len} bytes decoded");
        }
        // So is every single-bit flip of the `theta_len` field: each one
        // declares a payload the buffer does not hold.
        for bit in 0..64 {
            let mut flipped = bytes.clone();
            flipped[HEADER_BYTES - 8 + bit / 8] ^= 1 << (bit % 8);
            let decoded = std::panic::catch_unwind(|| decode_update(&flipped))
                .unwrap_or_else(|_| panic!("flipping theta_len bit {bit} panicked"));
            assert!(decoded.is_err(), "flipping theta_len bit {bit} decoded");
        }
    }

    #[test]
    fn decode_rejects_a_length_whose_byte_count_overflows() {
        let header = &encode_update(&update())[..HEADER_BYTES];
        // 2^62 parameters wrap `len * 4` to zero; u64::MAX wraps the offset.
        for theta_len in [1u64 << 62, u64::MAX] {
            let mut bytes = header.to_vec();
            bytes[HEADER_BYTES - 8..].copy_from_slice(&theta_len.to_le_bytes());
            let decoded = std::panic::catch_unwind(|| decode_update(&bytes))
                .unwrap_or_else(|_| panic!("theta_len {theta_len} panicked"));
            assert!(
                matches!(&decoded, Err(FlError::InvalidConfig { what }) if what.starts_with("truncated update message")),
                "theta_len {theta_len}: {decoded:?}"
            );
        }
    }

    #[test]
    fn encoded_size_tracks_freeze_level_in_a_real_update() {
        let m = model();
        let mut small = update();
        small.theta = m.trainable_vector(FreezeLevel::Classifier);
        let mut large = update();
        large.theta = m.trainable_vector(FreezeLevel::Full);
        assert!(encode_update(&small).len() < encode_update(&large).len());
    }
}
