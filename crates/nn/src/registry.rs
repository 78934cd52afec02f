//! On-disk versioned model registry.
//!
//! A registry directory holds immutable checkpoint objects plus a single
//! JSON manifest describing every published version:
//!
//! ```text
//! <root>/
//!   manifest.json          # atomically rewritten on every publish
//!   objects/v000001.ckpt   # immutable checkpoint containers (v2, checksummed)
//!   objects/v000002.ckpt
//! ```
//!
//! **Publish is atomic** and ordered for crash safety: the object file is
//! written with the temp+fsync+rename idiom first, and only then is the
//! manifest rewritten (also temp+fsync+rename). A crash between the two
//! steps leaves a harmless orphan object that no manifest entry references;
//! a concurrent reader always sees either the old or the new manifest,
//! each of which only references fully durable objects. A torn *temp* file
//! (kill mid-write) is invisible to `resolve` by construction because
//! resolution only ever consults the manifest.
//!
//! **Load is verified twice**: the manifest records a
//! [`checksum64`] over the full container bytes and the model
//! [fingerprint](crate::model::M3Net::fingerprint); `load` checks the
//! manifest checksum before touching the container (quarantining a
//! mismatch to a `.corrupt` sidecar, like [`checkpoint::load_file`]), the
//! container's own embedded body checksum is verified during decode, and
//! the decoded net's fingerprint must match the manifest. A corrupt or
//! swapped object therefore cannot reach a caller as a "valid" model.
//!
//! The registry assumes a **single publisher** per root (the serving
//! process or the `m3 retrain-publish` CLI); concurrent readers are safe.

use crate::checkpoint;
use crate::integrity::{checksum64, write_atomic};
use crate::model::M3Net;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};

/// Where a published model came from — enough provenance to audit a
/// promotion chain after the fact.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Lineage {
    /// Version this model was trained from / replaces, if any.
    #[serde(default)]
    pub parent: Option<u64>,
    /// Producer tag, e.g. `"train"`, `"retrain-publish"`, `"import"`.
    #[serde(default)]
    pub source: String,
    /// Free-form operator note.
    #[serde(default)]
    pub note: String,
    /// Seed the training run used (reproducibility pointer).
    #[serde(default)]
    pub train_seed: u64,
}

/// One published model version: manifest entry pointing at an immutable
/// checkpoint object, with integrity and provenance metadata.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelVersion {
    /// Monotonic registry version, starting at 1.
    pub version: u64,
    /// [`M3Net::fingerprint`] of the checkpointed model.
    pub fingerprint: u64,
    /// [`checksum64`] over the full container bytes on disk.
    pub checksum: u64,
    /// Container size in bytes.
    pub bytes: u64,
    /// Object path relative to the registry root.
    pub file: String,
    #[serde(default)]
    pub lineage: Lineage,
}

#[derive(Debug, Default, Serialize, Deserialize)]
struct Manifest {
    versions: Vec<ModelVersion>,
}

/// How a caller names the version it wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelRef {
    /// Highest published version.
    Latest,
    /// A pinned registry version.
    Version(u64),
    /// Content-addressed: the model fingerprint. Resolves to the *newest*
    /// version carrying that fingerprint.
    Fingerprint(u64),
}

impl std::fmt::Display for ModelRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelRef::Latest => write!(f, "latest"),
            ModelRef::Version(v) => write!(f, "v{v}"),
            ModelRef::Fingerprint(fp) => write!(f, "fp:{fp:#018x}"),
        }
    }
}

impl std::str::FromStr for ModelRef {
    type Err = String;

    /// Accepts `latest`, `v<N>` / `<N>` (pinned version), or
    /// `fp:<hex>` (fingerprint, with or without `0x`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.eq_ignore_ascii_case("latest") {
            return Ok(ModelRef::Latest);
        }
        if let Some(hex) = s.strip_prefix("fp:") {
            let hex = hex.strip_prefix("0x").unwrap_or(hex);
            return u64::from_str_radix(hex, 16)
                .map(ModelRef::Fingerprint)
                .map_err(|e| format!("bad fingerprint ref {s:?}: {e}"));
        }
        let digits = s.strip_prefix('v').unwrap_or(s);
        digits
            .parse::<u64>()
            .map(ModelRef::Version)
            .map_err(|e| format!("bad model ref {s:?} (want latest | v<N> | fp:<hex>): {e}"))
    }
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// On-disk versioned model registry rooted at a directory. Cheap to clone
/// (it is just the root path); all state lives on disk.
#[derive(Debug, Clone)]
pub struct ModelRegistry {
    root: PathBuf,
}

impl ModelRegistry {
    /// Open (creating if needed) a registry rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(root.join("objects"))?;
        Ok(ModelRegistry { root })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    fn manifest_path(&self) -> PathBuf {
        self.root.join("manifest.json")
    }

    fn read_manifest(&self) -> io::Result<Manifest> {
        let path = self.manifest_path();
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Manifest::default()),
            Err(e) => return Err(e),
        };
        serde_json::from_slice(&bytes)
            .map_err(|e| invalid(format!("{}: corrupt manifest: {e}", path.display())))
    }

    /// Publish a model: checkpoint it (container v2) and register the new
    /// version. Returns the manifest entry.
    pub fn publish(&self, net: &M3Net, seed: u64, lineage: Lineage) -> io::Result<ModelVersion> {
        let bytes = checkpoint::save_to_vec(net, seed)?;
        self.publish_bytes(&bytes, net.fingerprint(), lineage)
    }

    /// Publish pre-encoded container bytes (the trainer and the fault
    /// harness use this to publish exact byte images). The object file
    /// lands durably *before* the manifest references it.
    pub fn publish_bytes(
        &self,
        bytes: &[u8],
        fingerprint: u64,
        lineage: Lineage,
    ) -> io::Result<ModelVersion> {
        let mut manifest = self.read_manifest()?;
        let version = manifest.versions.last().map_or(1, |v| v.version + 1);
        let file = format!("objects/v{version:06}.ckpt");
        write_atomic(&self.root.join(&file), bytes)?;
        let entry = ModelVersion {
            version,
            fingerprint,
            checksum: checksum64(bytes),
            bytes: bytes.len() as u64,
            file,
            lineage,
        };
        manifest.versions.push(entry.clone());
        let json = serde_json::to_vec(&manifest).map_err(io::Error::other)?;
        write_atomic(&self.manifest_path(), &json)?;
        Ok(entry)
    }

    /// All published versions, oldest first.
    pub fn versions(&self) -> io::Result<Vec<ModelVersion>> {
        Ok(self.read_manifest()?.versions)
    }

    /// Resolve a [`ModelRef`] to its manifest entry. `NotFound` if the
    /// registry is empty or the ref does not exist.
    pub fn resolve(&self, r: ModelRef) -> io::Result<ModelVersion> {
        let manifest = self.read_manifest()?;
        let found = match r {
            ModelRef::Latest => manifest.versions.last().cloned(),
            ModelRef::Version(v) => manifest.versions.iter().find(|e| e.version == v).cloned(),
            ModelRef::Fingerprint(fp) => manifest
                .versions
                .iter()
                .rev()
                .find(|e| e.fingerprint == fp)
                .cloned(),
        };
        found.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "model ref {r} not found in registry {}",
                    self.root.display()
                ),
            )
        })
    }

    /// Resolve and load a version, verifying integrity end to end:
    /// manifest checksum over the container bytes (mismatch quarantines
    /// the object to a `.corrupt` sidecar), the container's embedded body
    /// checksum, and the decoded model's fingerprint against the manifest.
    pub fn load(&self, r: ModelRef) -> io::Result<(ModelVersion, M3Net)> {
        let entry = self.resolve(r)?;
        let path = self.root.join(&entry.file);
        let bytes = std::fs::read(&path)?;
        let computed = checksum64(&bytes);
        if computed != entry.checksum {
            let sidecar = checkpoint::corrupt_sidecar(&path);
            let quarantine_note = match std::fs::copy(&path, &sidecar) {
                Ok(_) => format!("quarantined to {}", sidecar.display()),
                Err(e) => format!("quarantine copy failed: {e}"),
            };
            return Err(invalid(format!(
                "{}: registry checksum mismatch for v{} (manifest {:#018x}, computed {computed:#018x}); {quarantine_note}",
                path.display(),
                entry.version,
                entry.checksum,
            )));
        }
        let net = checkpoint::load(&bytes[..])
            .map_err(|e| invalid(format!("{}: {e}", path.display())))?;
        let fp = net.fingerprint();
        if fp != entry.fingerprint {
            return Err(invalid(format!(
                "{}: model fingerprint {fp:#018x} does not match manifest {:#018x} for v{}",
                path.display(),
                entry.fingerprint,
                entry.version,
            )));
        }
        Ok((entry, net))
    }

    /// True when a quarantine sidecar exists for the given version's
    /// object (i.e. a corrupt copy of it was preserved by a failed load).
    pub fn is_quarantined(&self, entry: &ModelVersion) -> bool {
        checkpoint::corrupt_sidecar(&self.root.join(&entry.file)).exists()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;

    fn tiny_net(seed: u64) -> M3Net {
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
        M3Net::new(cfg, seed)
    }

    fn temp_root(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("m3nn_registry_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn publish_and_resolve_semantics() {
        let root = temp_root("resolve");
        let reg = ModelRegistry::open(&root).unwrap();
        assert!(reg.resolve(ModelRef::Latest).is_err(), "empty registry");

        let a = tiny_net(1);
        let b = tiny_net(2);
        let va = reg.publish(&a, 1, Lineage::default()).unwrap();
        let vb = reg
            .publish(
                &b,
                2,
                Lineage {
                    parent: Some(va.version),
                    source: "train".into(),
                    note: "second".into(),
                    train_seed: 2,
                },
            )
            .unwrap();
        assert_eq!((va.version, vb.version), (1, 2));

        assert_eq!(reg.resolve(ModelRef::Latest).unwrap().version, 2);
        assert_eq!(reg.resolve(ModelRef::Version(1)).unwrap(), va);
        assert_eq!(
            reg.resolve(ModelRef::Fingerprint(a.fingerprint()))
                .unwrap()
                .version,
            1
        );
        assert!(reg.resolve(ModelRef::Version(9)).is_err());

        let (entry, net) = reg.load(ModelRef::Latest).unwrap();
        assert_eq!(entry.version, 2);
        assert_eq!(net.fingerprint(), b.fingerprint());
        assert_eq!(entry.lineage.parent, Some(1));
    }

    #[test]
    fn corrupt_object_is_quarantined_and_never_loads() {
        let root = temp_root("corrupt");
        let reg = ModelRegistry::open(&root).unwrap();
        let entry = reg.publish(&tiny_net(3), 3, Lineage::default()).unwrap();
        let path = root.join(&entry.file);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();

        let err = reg.load(ModelRef::Latest).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("quarantined"), "{err}");
        assert!(reg.is_quarantined(&entry));
        // resolve still works: the manifest itself is intact.
        assert_eq!(
            reg.resolve(ModelRef::Latest).unwrap().version,
            entry.version
        );
    }

    #[test]
    fn torn_temp_file_is_invisible_to_resolve() {
        let root = temp_root("torn");
        let reg = ModelRegistry::open(&root).unwrap();
        let first = reg.publish(&tiny_net(4), 4, Lineage::default()).unwrap();
        // Simulate a kill mid-publish: a half-written object temp file and
        // a half-written manifest temp file, neither renamed into place.
        std::fs::write(root.join("objects/v000002.ckpt.tmp.999"), b"torn").unwrap();
        std::fs::write(root.join("manifest.json.tmp.999"), b"{\"versio").unwrap();
        let latest = reg.resolve(ModelRef::Latest).unwrap();
        assert_eq!(latest, first);
        let (_, net) = reg.load(ModelRef::Latest).unwrap();
        assert_eq!(net.fingerprint(), first.fingerprint);
    }

    #[test]
    fn model_ref_parses() {
        assert_eq!("latest".parse::<ModelRef>().unwrap(), ModelRef::Latest);
        assert_eq!("v7".parse::<ModelRef>().unwrap(), ModelRef::Version(7));
        assert_eq!("7".parse::<ModelRef>().unwrap(), ModelRef::Version(7));
        assert_eq!(
            "fp:0x00000000000000ff".parse::<ModelRef>().unwrap(),
            ModelRef::Fingerprint(255)
        );
        assert!("bogus".parse::<ModelRef>().is_err());
    }
}
