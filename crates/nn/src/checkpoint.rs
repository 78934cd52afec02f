//! Model checkpoints: a compact self-describing binary container
//! (magic + JSON header with the config and parameter shapes, then raw
//! little-endian f32 data). No heavyweight serialization dependency needed.
//!
//! Container version 2 embeds a [`checksum64`] over the body (header +
//! parameter payload) right after the version field. Readers verify it
//! *before* deserializing anything, so a bit-flipped checkpoint is rejected
//! with a typed integrity error instead of being parsed into a silently
//! wrong model. Any other version, the unchecksummed version 1 included, is
//! rejected. [`load_file`] additionally *quarantines* a checksum-failed
//! file to a `.corrupt` sidecar — the same discipline the serve journal
//! applies to corrupt records — so the evidence survives for postmortem
//! while callers get a clear error.

use crate::integrity::{checksum64, write_atomic};
use crate::model::{M3Net, ModelConfig};
use crate::params::ParamStore;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"M3NN";
/// The container version: a `checksum64` over the body sits between the
/// version field and the JSON header length.
const VERSION: u32 = 2;
/// Ceiling on the JSON header length a reader will accept. Real headers are
/// a few hundred bytes; anything larger is a corrupt or hostile length field.
const MAX_HEADER_BYTES: usize = 1 << 20;

#[derive(Debug, Serialize, Deserialize)]
struct Header {
    config: ModelConfig,
    /// (name, rows, cols) per parameter, in store order.
    params: Vec<(String, usize, usize)>,
    /// Seed the net was constructed with (layout reproducibility).
    seed: u64,
}

/// Serialize the container *body* (JSON header length + JSON header + raw
/// parameter payload) — the byte span the v2 checksum covers.
fn encode_body(net: &M3Net, seed: u64) -> io::Result<Vec<u8>> {
    let header = Header {
        config: net.cfg.clone(),
        params: net
            .store
            .iter()
            .map(|p| (p.name.clone(), p.value.rows, p.value.cols))
            .collect(),
        seed,
    };
    let json = serde_json::to_vec(&header).map_err(io::Error::other)?;
    let payload_len: usize = net.store.iter().map(|p| p.value.data.len() * 4).sum();
    let mut body = Vec::with_capacity(4 + json.len() + payload_len);
    body.extend_from_slice(&(json.len() as u32).to_le_bytes());
    body.extend_from_slice(&json);
    for p in net.store.iter() {
        for &v in &p.value.data {
            body.extend_from_slice(&v.to_le_bytes());
        }
    }
    Ok(body)
}

/// Serialize a model to a writer (container v2: body checksum included).
pub fn save<W: Write>(net: &M3Net, seed: u64, mut w: W) -> io::Result<()> {
    let body = encode_body(net, seed)?;
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&checksum64(&body).to_le_bytes())?;
    w.write_all(&body)?;
    Ok(())
}

/// Serialize a model to an in-memory buffer (the registry's publish unit).
pub fn save_to_vec(net: &M3Net, seed: u64) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    save(net, seed, &mut buf)?;
    Ok(buf)
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Typed payload of the `InvalidData` error a failed body-checksum
/// verification produces, so callers ([`load_file`], the model registry)
/// can distinguish *corruption* (quarantine-worthy) from other malformed
/// input without string matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChecksumMismatch {
    pub stored: u64,
    pub computed: u64,
}

impl std::fmt::Display for ChecksumMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "checkpoint body checksum mismatch (stored {:#018x}, computed {:#018x})",
            self.stored, self.computed
        )
    }
}

impl std::error::Error for ChecksumMismatch {}

/// True when `e` is the typed body-checksum failure from [`load`].
pub fn is_checksum_mismatch(e: &io::Error) -> bool {
    e.get_ref()
        .is_some_and(|inner| inner.is::<ChecksumMismatch>())
}

/// Deserialize a model from a reader.
///
/// The container's body checksum is verified *before* any body byte is
/// interpreted; a mismatch yields `InvalidData` with a
/// [`ChecksumMismatch`] payload, and any version other than the current
/// one yields `InvalidData`. Every header-claimed quantity is validated
/// before it sizes an allocation: the JSON length is capped, the config's
/// dimensions are bounds-checked via [`ModelConfig::validate`], and each
/// parameter's claimed shape must match the architecture implied by the
/// config. A corrupt or hostile header therefore yields `InvalidData` (or
/// `UnexpectedEof` on truncation), never an OOM.
pub fn load<R: Read>(mut r: R) -> io::Result<M3Net> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(invalid("bad magic"));
    }
    let mut buf4 = [0u8; 4];
    r.read_exact(&mut buf4)?;
    let version = u32::from_le_bytes(buf4);
    if version != VERSION {
        return Err(invalid(format!("unsupported checkpoint version {version}")));
    }
    let mut buf8 = [0u8; 8];
    r.read_exact(&mut buf8)?;
    let stored = u64::from_le_bytes(buf8);
    // Buffer the whole body and verify its checksum before a single field
    // of it is parsed: a bit-flipped checkpoint is rejected here, not
    // deserialized into a silently wrong model.
    let mut body = Vec::new();
    r.read_to_end(&mut body)?;
    let computed = checksum64(&body);
    if computed != stored {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            ChecksumMismatch { stored, computed },
        ));
    }
    load_body(&body[..])
}

/// Parse and validate the checksum-verified container body: the header
/// length, the JSON header and the parameter payload.
fn load_body<R: Read>(mut r: R) -> io::Result<M3Net> {
    let mut buf4 = [0u8; 4];
    r.read_exact(&mut buf4)?;
    let json_len = u32::from_le_bytes(buf4) as usize;
    if json_len > MAX_HEADER_BYTES {
        return Err(invalid(format!(
            "header length {json_len} exceeds the {MAX_HEADER_BYTES}-byte cap"
        )));
    }
    let mut json = vec![0u8; json_len];
    r.read_exact(&mut json)?;
    let header: Header = serde_json::from_slice(&json).map_err(io::Error::other)?;
    header
        .config
        .validate()
        .map_err(|reason| invalid(format!("invalid checkpoint config: {reason}")))?;

    // Rebuild the net with the recorded seed to recover the layout. The
    // config was validated above, so this allocation is bounded.
    let mut net = M3Net::new(header.config, header.seed);
    if net.store.len() != header.params.len() {
        return Err(invalid(
            "checkpoint parameter count does not match architecture",
        ));
    }
    // Shape-check the header's claims against the architecture BEFORE
    // reading (and allocating) any payload: the payload buffers below are
    // then sized by the validated architecture, not by untrusted input.
    for (fresh, (name, rows, cols)) in net.store.iter().zip(&header.params) {
        if fresh.value.shape() != (*rows, *cols) || &fresh.name != name {
            return Err(invalid(format!(
                "parameter mismatch: expected {} {:?}, found {} {:?}",
                fresh.name,
                fresh.value.shape(),
                name,
                (*rows, *cols)
            )));
        }
    }
    let mut new_store = ParamStore::new();
    for (name, rows, cols) in &header.params {
        // Shape arithmetic stays checked even though the shapes were
        // validated above: `rows * cols` on hostile input must never wrap.
        let n = rows
            .checked_mul(*cols)
            .and_then(|n| n.checked_mul(4))
            .ok_or_else(|| invalid(format!("parameter {name} shape overflows")))?;
        let mut data = vec![0f32; n / 4];
        let mut bytes = vec![0u8; n];
        r.read_exact(&mut bytes)?;
        for (i, chunk) in bytes.chunks_exact(4).enumerate() {
            let mut le = [0u8; 4];
            le.copy_from_slice(chunk);
            data[i] = f32::from_le_bytes(le);
        }
        let tensor = Tensor::try_from_vec(*rows, *cols, data)
            .map_err(|e| invalid(format!("parameter {name}: {e}")))?;
        new_store.add(name.clone(), tensor);
    }
    net.store = new_store;
    Ok(net)
}

/// Save to a file path atomically ([`write_atomic`]): a crash mid-save can
/// leave a stray temp file but never a truncated checkpoint at `path`.
pub fn save_file(net: &M3Net, seed: u64, path: impl AsRef<Path>) -> io::Result<()> {
    write_atomic(path.as_ref(), &save_to_vec(net, seed)?)
}

/// Path of the quarantine sidecar for a given checkpoint path.
pub fn corrupt_sidecar(path: &Path) -> std::path::PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".corrupt");
    std::path::PathBuf::from(name)
}

/// Load from a file path.
///
/// A file that fails its body checksum is *quarantined*: copied to a
/// `<path>.corrupt` sidecar (preserving the evidence for postmortem, same
/// discipline as the serve journal's corrupt-record sidecars) and reported
/// with an `InvalidData` error naming the sidecar. Structural errors (bad
/// magic, truncation, shape mismatch) pass through unchanged.
pub fn load_file(path: impl AsRef<Path>) -> io::Result<M3Net> {
    let path = path.as_ref();
    let f = std::fs::File::open(path)?;
    match load(io::BufReader::new(f)) {
        Ok(net) => Ok(net),
        Err(e) if is_checksum_mismatch(&e) => {
            let sidecar = corrupt_sidecar(path);
            match std::fs::copy(path, &sidecar) {
                Ok(_) => Err(invalid(format!(
                    "{}: {e}; corrupt checkpoint quarantined to {}",
                    path.display(),
                    sidecar.display()
                ))),
                Err(copy_err) => Err(invalid(format!(
                    "{}: {e}; quarantine copy failed: {copy_err}",
                    path.display()
                ))),
            }
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SampleInput;

    fn tiny_net() -> M3Net {
        let cfg = ModelConfig {
            feat_dim: 10,
            spec_dim: 3,
            out_dim: 4,
            embed: 8,
            heads: 2,
            layers: 1,
            block: 4,
            ff_hidden: 8,
            mlp_hidden: 8,
        };
        M3Net::new(cfg, 11)
    }

    fn sample() -> SampleInput {
        SampleInput {
            fg: (0..10).map(|i| i as f32 * 0.1).collect(),
            bg: vec![(0..10).map(|i| i as f32 * 0.05).collect()],
            spec: vec![0.1, 0.2, 0.3],
            use_context: true,
        }
    }

    #[test]
    fn roundtrip_preserves_predictions() {
        let net = tiny_net();
        let mut buf = Vec::new();
        save(&net, 11, &mut buf).unwrap();
        let loaded = load(&buf[..]).unwrap();
        assert_eq!(net.predict(&sample()), loaded.predict(&sample()));
        assert_eq!(net.num_params(), loaded.num_params());
    }

    #[test]
    fn rejects_bad_magic() {
        let err = load(&b"XXXXgarbage"[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_truncated() {
        let net = tiny_net();
        let mut buf = Vec::new();
        save(&net, 11, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(load(&buf[..]).is_err());
    }

    /// Wrap a hand-built *body* in a v2 container with a correct checksum,
    /// so structural-validation tests exercise `load_body` through the
    /// current-version path (checksum passes, structure is the problem).
    fn v2_container(body: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16 + body.len());
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&checksum64(body).to_le_bytes());
        buf.extend_from_slice(body);
        buf
    }

    #[test]
    fn rejects_oversized_header_length() {
        // A 3 GiB header-length claim (with a valid checksum over it). A
        // naive reader would allocate 3 GiB before noticing the stream ends.
        let body = 3_000_000_000u32.to_le_bytes();
        let err = load(&v2_container(&body)[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("cap"), "{err}");
    }

    #[test]
    fn rejects_absurd_config_dimensions() {
        // A parseable header whose config implies terabytes of parameters
        // must be rejected by validation, not by the allocator.
        let mut cfg = tiny_net().cfg;
        cfg.feat_dim = 1 << 19;
        cfg.mlp_hidden = 1 << 14;
        let header = Header {
            config: cfg,
            params: vec![],
            seed: 0,
        };
        let json = serde_json::to_vec(&header).unwrap();
        let mut body = Vec::new();
        body.extend_from_slice(&(json.len() as u32).to_le_bytes());
        body.extend_from_slice(&json);
        let err = load(&v2_container(&body)[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("invalid checkpoint config"),
            "{err}"
        );
    }

    #[test]
    fn rejects_mismatched_parameter_shape() {
        let net = tiny_net();
        // Corrupt the header of a freshly encoded body: inflate the first
        // parameter's row count, then re-wrap with a *valid* checksum so
        // the structural check (not the integrity check) fires.
        let body = encode_body(&net, 11).unwrap();
        let json_len = u32::from_le_bytes([body[0], body[1], body[2], body[3]]) as usize;
        let mut header: Header = serde_json::from_slice(&body[4..4 + json_len]).unwrap();
        header.params[0].1 *= 1000;
        let json = serde_json::to_vec(&header).unwrap();
        let mut corrupt = Vec::new();
        corrupt.extend_from_slice(&(json.len() as u32).to_le_bytes());
        corrupt.extend_from_slice(&json);
        corrupt.extend_from_slice(&body[4 + json_len..]);
        let err = load(&v2_container(&corrupt)[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("parameter mismatch"), "{err}");
    }

    #[test]
    fn rejects_unsupported_version() {
        // Version 1 (no body checksum) is refused like any unknown version,
        // even when a well-formed body follows.
        let body = encode_body(&tiny_net(), 11).unwrap();
        for version in [1u32, 99] {
            let mut buf = Vec::new();
            buf.extend_from_slice(MAGIC);
            buf.extend_from_slice(&version.to_le_bytes());
            buf.extend_from_slice(&body);
            let err = load(&buf[..]).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("version"), "{err}");
        }
    }

    #[test]
    fn bit_flip_anywhere_in_body_is_detected() {
        let net = tiny_net();
        let buf = save_to_vec(&net, 11).unwrap();
        // Flip one bit in a handful of body positions spanning the header
        // and the parameter payload; every flip must surface as the typed
        // checksum failure, never as a silently different model.
        for pos in [16, 20, buf.len() / 2, buf.len() - 1] {
            let mut flipped = buf.clone();
            flipped[pos] ^= 0x10;
            let err = load(&flipped[..]).unwrap_err();
            assert!(
                is_checksum_mismatch(&err),
                "flip at {pos} gave non-checksum error: {err}"
            );
        }
    }

    #[test]
    fn corrupt_file_is_quarantined_to_sidecar() {
        let net = tiny_net();
        let dir = std::env::temp_dir().join("m3nn_test_quarantine");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.bin");
        save_file(&net, 11, &path).unwrap();
        // Flip a payload bit on disk.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = load_file(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("quarantined"), "{err}");
        let sidecar = corrupt_sidecar(&path);
        assert_eq!(
            std::fs::read(&sidecar).unwrap(),
            bytes,
            "sidecar must preserve the corrupt bytes verbatim"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_save_overwrites_and_leaves_no_temp() {
        let net = tiny_net();
        let dir = std::env::temp_dir().join("m3nn_test_atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.bin");
        std::fs::write(&path, b"stale garbage").unwrap();
        save_file(&net, 11, &path).unwrap();
        let loaded = load_file(&path).unwrap();
        assert_eq!(net.predict(&sample()), loaded.predict(&sample()));
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(stray.is_empty(), "temp file left behind: {stray:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_roundtrip() {
        let net = tiny_net();
        let dir = std::env::temp_dir().join("m3nn_test_ckpt.bin");
        save_file(&net, 11, &dir).unwrap();
        let loaded = load_file(&dir).unwrap();
        assert_eq!(net.predict(&sample()), loaded.predict(&sample()));
        let _ = std::fs::remove_file(dir);
    }
}
