//! Versioned serialization of [`Partitioned`] artifacts — the wire/disk
//! format behind the on-disk [`ArtifactStore`](crate::store::ArtifactStore).
//!
//! An artifact document is a JSON envelope around a payload object:
//!
//! ```text
//! {"format":"epgs-planned","version":2,
//!  "canonical":"<16-hex>","config":"<16-hex>","checksum":"<16-hex>",
//!  "payload":{"target":{"n":..,"edges":[..]},"block_of":[..],"lc_sequence":[..]}}
//! ```
//!
//! The payload is the result of the expensive partition + LC search (paper
//! §IV.A) and nothing derived from it: the exact target graph (so readers
//! can confirm content-addressed lookups against the *exact* labeling,
//! exactly like the in-memory cache), the block of every vertex, and the
//! LC sequence. [`decode`] rebuilds the transformed graph, the cut and
//! `Ne_min` from those, and a disk hit reruns the cheap, deterministic
//! leaf stage ([`plan_leaves`](crate::Partitioned::plan_leaves)) to get
//! the plans back. The payload holds only integers, so a round trip
//! re-encodes to identical bytes.
//!
//! The checksum is FNV-1a over the serialized payload bytes. A flipped bit
//! inside the payload either breaks the JSON grammar (parse error) or
//! changes the re-serialized bytes (checksum mismatch). A payload whose
//! checksum holds but whose partition is invalid is rejected as
//! [`ArtifactError::Malformed`]. Each of these degrades to a recompile at
//! the store layer, mirroring the in-memory corruption guard.

use std::fmt;
use std::sync::Arc;

use epgs_corpus::json::{JsonError, Value, Writer};
use epgs_graph::canon::fnv1a_all;
use epgs_graph::{ops, Graph};
use epgs_partition::Partition;

use crate::batch::CacheKey;
use crate::stages::{Partitioned, Pipeline};

/// Format tag every artifact document carries.
pub const FORMAT: &str = "epgs-planned";

/// Current artifact schema version. Readers reject any other version —
/// artifacts are cache entries, so "reject and recompile" is always sound.
pub const VERSION: u64 = 2;

/// Why an artifact document could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// The document is not valid JSON.
    Json(JsonError),
    /// The document parses but does not follow the artifact schema.
    Malformed(String),
    /// The document's schema version is not [`VERSION`].
    VersionMismatch {
        /// Version found in the document (`None` when absent/non-integer).
        found: Option<u64>,
    },
    /// The payload bytes do not match the recorded checksum.
    ChecksumMismatch,
    /// The envelope's cache key does not match the requested one.
    KeyMismatch,
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Json(e) => write!(f, "artifact is not valid JSON: {e}"),
            ArtifactError::Malformed(what) => write!(f, "malformed artifact: {what}"),
            ArtifactError::VersionMismatch { found: Some(v) } => {
                write!(f, "artifact version {v} != supported {VERSION}")
            }
            ArtifactError::VersionMismatch { found: None } => {
                write!(f, "artifact has no readable version")
            }
            ArtifactError::ChecksumMismatch => write!(f, "artifact checksum mismatch"),
            ArtifactError::KeyMismatch => write!(f, "artifact stored under a different key"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<JsonError> for ArtifactError {
    fn from(e: JsonError) -> Self {
        ArtifactError::Json(e)
    }
}

/// FNV-1a over a byte string (the payload checksum; shared with the
/// store's manifest envelope).
pub(crate) fn checksum_bytes(bytes: &[u8]) -> u64 {
    fnv1a_all(bytes.iter().map(|&b| u64::from(b)))
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn write_graph(w: &mut Writer, g: &Graph) {
    w.begin_obj();
    w.field_uint("n", g.vertex_count() as u64);
    w.key("edges");
    w.begin_arr();
    for (a, b) in g.edges() {
        w.begin_arr();
        w.uint(a as u64);
        w.uint(b as u64);
        w.end_arr();
    }
    w.end_arr();
    w.end_obj();
}

fn write_usize_arr(w: &mut Writer, key: &str, xs: &[usize]) {
    w.key(key);
    w.begin_arr();
    for &x in xs {
        w.uint(x as u64);
    }
    w.end_arr();
}

/// Renders the payload object (everything under the envelope's `payload`).
fn encode_payload(target: &Graph, block_of: &[usize], lc_sequence: &[usize]) -> String {
    let mut w = Writer::with_capacity(1024);
    w.begin_obj();
    w.key("target");
    write_graph(&mut w, target);
    write_usize_arr(&mut w, "block_of", block_of);
    write_usize_arr(&mut w, "lc_sequence", lc_sequence);
    w.end_obj();
    w.finish()
}

/// Wraps a rendered payload in the checksummed envelope.
fn envelope(key: CacheKey, payload: &str) -> String {
    let mut w = Writer::with_capacity(payload.len() + 160);
    w.begin_obj();
    w.field_str("format", FORMAT);
    w.field_uint("version", VERSION);
    w.field_hex("canonical", key.canonical);
    w.field_hex("config", key.config);
    w.field_hex("checksum", checksum_bytes(payload.as_bytes()));
    w.field_raw("payload", payload);
    w.end_obj();
    w.finish()
}

/// Serializes the search result `partitioned` into a complete artifact
/// document stored under `key`.
pub fn encode(partitioned: &Partitioned, key: CacheKey) -> String {
    let p = partitioned.partition();
    let payload = encode_payload(partitioned.target(), &p.block_of, &p.lc_sequence);
    envelope(key, &payload)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn malformed(what: impl Into<String>) -> ArtifactError {
    ArtifactError::Malformed(what.into())
}

fn need_usize(v: &Value, what: &str) -> Result<usize, ArtifactError> {
    v.as_usize().ok_or_else(|| malformed(what.to_string()))
}

fn field<'a>(obj: &'a Value, key: &str) -> Result<&'a Value, ArtifactError> {
    obj.get(key)
        .ok_or_else(|| malformed(format!("missing field '{key}'")))
}

fn hex_u64(v: &Value, what: &str) -> Result<u64, ArtifactError> {
    let s = v.as_str().ok_or_else(|| malformed(what.to_string()))?;
    if s.len() != 16 {
        return Err(malformed(format!("{what}: expected 16 hex digits")));
    }
    u64::from_str_radix(s, 16).map_err(|_| malformed(format!("{what}: bad hex")))
}

fn usize_arr(v: &Value, what: &str) -> Result<Vec<usize>, ArtifactError> {
    v.as_arr()
        .ok_or_else(|| malformed(what.to_string()))?
        .iter()
        .map(|x| need_usize(x, what))
        .collect()
}

fn decode_graph(v: &Value, n: usize) -> Result<Graph, ArtifactError> {
    let edges = field(v, "edges")?
        .as_arr()
        .ok_or_else(|| malformed("graph edges"))?
        .iter()
        .map(|e| {
            let pair = e.as_arr().filter(|p| p.len() == 2);
            let pair = pair.ok_or_else(|| malformed("graph edge"))?;
            Ok((
                need_usize(&pair[0], "edge endpoint")?,
                need_usize(&pair[1], "edge endpoint")?,
            ))
        })
        .collect::<Result<Vec<_>, ArtifactError>>()?;
    Graph::from_edges(n, edges).map_err(|e| malformed(format!("graph: {e}")))
}

/// Rebuilds the target and the search partition from the payload,
/// validating them as outside input: the checksum only proves the bytes
/// are the ones written, not that a valid compile wrote them.
fn decode_payload(payload: &Value, g_max: usize) -> Result<(Graph, Partition), ArtifactError> {
    let target = field(payload, "target")?;
    let n = need_usize(field(target, "n")?, "graph n")?;
    let block_of = usize_arr(field(payload, "block_of")?, "block_of")?;
    // Checked before anything is sized by `n`: one block id per vertex
    // bounds `n` by the document's length.
    if block_of.len() != n {
        return Err(malformed(format!(
            "block_of has {} entries for {n} vertices",
            block_of.len()
        )));
    }
    let mut sizes = vec![0usize; n];
    for &b in &block_of {
        let size = sizes
            .get_mut(b)
            .ok_or_else(|| malformed(format!("block id {b} out of range")))?;
        *size += 1;
        if *size > g_max {
            return Err(malformed(format!("block {b} exceeds g_max {g_max}")));
        }
    }
    let target = decode_graph(target, n)?;
    let lc_sequence = usize_arr(field(payload, "lc_sequence")?, "lc_sequence")?;
    let mut transformed = target.clone();
    ops::apply_lc_sequence(&mut transformed, &lc_sequence)
        .map_err(|e| malformed(format!("lc_sequence: {e}")))?;
    let mut partition = Partition {
        block_of,
        lc_sequence,
        transformed,
        cut: 0,
        // Degraded results are never persisted, so a decoded one is
        // pristine by construction and the codec needs no field for it.
        degraded: false,
    };
    partition.cut = partition.recompute_cut();
    Ok((target, partition))
}

/// Decodes an artifact document stored under `key` into a [`Partitioned`]
/// search result bound to `pipeline`'s configuration and counters.
///
/// Adoption does **not** count as a partition-stage execution: the
/// pipeline's `partition` counter only moves for real searches. The caller
/// gets the plans back by running [`plan_leaves`], which is a real plan
/// run and moves the `plan` counter once per adoption.
///
/// [`plan_leaves`]: crate::Partitioned::plan_leaves
///
/// # Errors
///
/// Any structural problem — bad JSON, schema violations, wrong version,
/// checksum mismatch, an envelope key differing from `key`, or a partition
/// that is invalid for `pipeline`'s `g_max` — comes back as an
/// [`ArtifactError`]; callers are expected to discard the document and
/// recompile.
pub fn decode(
    text: &str,
    key: CacheKey,
    pipeline: &Pipeline,
) -> Result<Partitioned, ArtifactError> {
    let doc = Value::parse(text)?;
    if field(&doc, "format")?.as_str() != Some(FORMAT) {
        return Err(malformed("not an epgs-planned document"));
    }
    let version = doc.get("version").and_then(Value::as_u64);
    if version != Some(VERSION) {
        return Err(ArtifactError::VersionMismatch { found: version });
    }
    if hex_u64(field(&doc, "canonical")?, "canonical")? != key.canonical
        || hex_u64(field(&doc, "config")?, "config")? != key.config
    {
        return Err(ArtifactError::KeyMismatch);
    }
    let payload = field(&doc, "payload")?;
    // Writer output and a re-serialized parsed payload agree byte for byte
    // (integers ≤ 2^53 and hex strings only), so the checksum detects any
    // surviving in-payload mutation.
    if checksum_bytes(payload.to_string().as_bytes())
        != hex_u64(field(&doc, "checksum")?, "checksum")?
    {
        return Err(ArtifactError::ChecksumMismatch);
    }
    let (target, partition) = decode_payload(payload, pipeline.config().partition.g_max)?;
    Ok(Partitioned::new(
        Arc::clone(&pipeline.shared),
        target,
        partition,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::config_fingerprint;
    use crate::config::FrameworkConfig;
    use crate::store::{exact_graph_hash, ArtifactStore};
    use epgs_graph::canon::canonical_hash;
    use epgs_graph::generators;

    fn quick_pipeline() -> Pipeline {
        Pipeline::new(
            FrameworkConfig::builder()
                .g_max(5)
                .lc_budget(3)
                .partition_effort(4)
                .orderings_per_subgraph(4)
                .flexible_slack(1)
                .build(),
        )
    }

    fn key_for(pipeline: &Pipeline, g: &Graph) -> CacheKey {
        CacheKey {
            canonical: canonical_hash(g),
            config: config_fingerprint(pipeline.config()),
        }
    }

    #[test]
    fn round_trip_is_bit_identical_and_schedules_identically() {
        let pipeline = quick_pipeline();
        let g = generators::lattice(3, 4);
        let partitioned = pipeline.partition(&g);
        let key = key_for(&pipeline, &g);
        let text = encode(&partitioned, key);
        let decoded = decode(&text, key, &pipeline).expect("decodes");
        assert_eq!(decoded.target(), partitioned.target());
        assert_eq!(decoded.partition(), partitioned.partition());
        assert_eq!(decoded.ne_min(), partitioned.ne_min());
        assert_eq!(encode(&decoded, key), text);
        // Replanning the decoded search result reproduces the plans, and
        // the cheap suffix produces byte-identical circuits off both.
        let fresh = partitioned.plan_leaves().unwrap();
        let replanned = decoded.plan_leaves().unwrap();
        assert_eq!(fresh.partition(), replanned.partition());
        let a = fresh.schedule(2).recombine().unwrap().verify().unwrap();
        let b = replanned.schedule(2).recombine().unwrap().verify().unwrap();
        assert_eq!(a.circuit, b.circuit);
        // Adoption did not count as a search; each plan_leaves did count.
        let counts = pipeline.counters();
        assert_eq!((counts.partition, counts.plan), (1, 2));
    }

    #[test]
    fn version_and_key_mismatches_are_rejected() {
        let pipeline = quick_pipeline();
        let g = generators::cycle(7);
        let key = key_for(&pipeline, &g);
        let text = encode(&pipeline.partition(&g), key);

        let bumped = text.replace(
            &format!("\"version\":{VERSION}"),
            &format!("\"version\":{}", VERSION + 1),
        );
        assert!(matches!(
            decode(&bumped, key, &pipeline),
            Err(ArtifactError::VersionMismatch { found: Some(v) }) if v == VERSION + 1
        ));

        let other = CacheKey {
            canonical: key.canonical.wrapping_add(1),
            config: key.config,
        };
        assert!(matches!(
            decode(&text, other, &pipeline),
            Err(ArtifactError::KeyMismatch)
        ));
    }

    #[test]
    fn corrupted_payloads_fail_the_checksum_or_grammar() {
        let pipeline = quick_pipeline();
        let g = generators::tree(9, 2);
        let key = key_for(&pipeline, &g);
        let text = encode(&pipeline.partition(&g), key);

        // Truncation breaks the grammar.
        assert!(matches!(
            decode(&text[..text.len() / 2], key, &pipeline),
            Err(ArtifactError::Json(_))
        ));

        // Flip the first (single-digit) block id: grammar intact, checksum
        // broken.
        let pos = text.find("\"block_of\":[").expect("block_of field") + 12;
        let mut bytes = text.clone().into_bytes();
        bytes[pos] = if bytes[pos] == b'0' { b'1' } else { b'0' };
        let flipped = String::from_utf8(bytes).unwrap();
        assert!(matches!(
            decode(&flipped, key, &pipeline),
            Err(ArtifactError::ChecksumMismatch)
        ));
    }

    /// A document with a valid checksum around an arbitrary payload for
    /// `g`: what a buggy writer, or a hand-edited file, would leave.
    fn checksummed(g: &Graph, key: CacheKey, block_of: &[usize], lc: &[usize]) -> String {
        envelope(key, &encode_payload(g, block_of, lc))
    }

    #[test]
    fn checksummed_but_invalid_partitions_are_malformed_and_discarded() {
        let pipeline = quick_pipeline();
        let g = generators::cycle(8);
        let key = key_for(&pipeline, &g);
        let valid = [0, 0, 0, 0, 1, 1, 1, 1];
        assert!(decode(&checksummed(&g, key, &valid, &[3]), key, &pipeline).is_ok());
        let invalid = [
            checksummed(&g, key, &valid[..7], &[]), // short block_of
            checksummed(&g, key, &[0, 0, 0, 0, 0, 0, 1, 1], &[]), // block of 6 > g_max 5
            checksummed(&g, key, &[0, 0, 0, 0, 9, 1, 1, 1], &[]), // block id out of range
            checksummed(&g, key, &valid, &[2, 8]),  // LC vertex out of range
        ];
        for doc in &invalid {
            assert!(
                matches!(
                    decode(doc, key, &pipeline),
                    Err(ArtifactError::Malformed(_))
                ),
                "{doc}"
            );
        }

        // Through the store: each one is a counted discard and a miss, and
        // a version-1 document is a version rejection instead.
        let v1 = checksummed(&g, key, &valid, &[])
            .replace(&format!("\"version\":{VERSION}"), "\"version\":1");
        let cases = invalid.iter().map(|d| (d, false)).chain([(&v1, true)]);
        for (i, (doc, version_rejected)) in cases.enumerate() {
            // A fresh store per case: two strikes on one name would
            // quarantine it and later loads would not reach the decoder.
            let dir = std::env::temp_dir()
                .join(format!("epgs-artifact-invalid-{}-{i}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let store = ArtifactStore::open(&dir).unwrap();
            let path = dir.join(ArtifactStore::file_name(key, exact_graph_hash(&g)));
            std::fs::write(&path, doc).unwrap();
            assert!(store.load(key, &g, &pipeline).is_none());
            let stats = store.stats();
            assert_eq!(stats.corrupt_discarded, usize::from(!version_rejected));
            assert_eq!(stats.version_rejected, usize::from(version_rejected));
            assert!(!path.exists(), "rejected file deleted");
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn error_rendering_is_informative() {
        assert!(ArtifactError::ChecksumMismatch
            .to_string()
            .contains("checksum"));
        assert!(ArtifactError::VersionMismatch { found: Some(9) }
            .to_string()
            .contains("9"));
        assert!(decode(
            "{}",
            CacheKey {
                canonical: 0,
                config: 0
            },
            &quick_pipeline()
        )
        .unwrap_err()
        .to_string()
        .contains("format"));
    }
}
