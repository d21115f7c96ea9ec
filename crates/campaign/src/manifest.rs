//! The resumable run manifest: the control plane's crash-recovery ledger.
//!
//! Alongside the streamed artifact chunks (`runs/<id>-s<seed>.json`), the
//! control plane appends one line per completed task to
//! `<out>/campaign.manifest`:
//!
//! ```text
//! mmwave-campaign-manifest/1 fp <hex16>
//! chunk <hex16> <len> <experiment> <seed> <relpath>
//! ```
//!
//! * The header's `fp` is the [`fingerprint`] of the planned task matrix
//!   (experiment ids, seeds, quick flag, per-task cc/prune overrides). A
//!   `--resume` against a manifest whose fingerprint differs starts
//!   fresh — the old chunks describe a different campaign.
//! * Each `chunk` line records the FNV-1a 64 hash and byte length of one
//!   fully-written chunk file. The control plane appends the line *after*
//!   the chunk hit the disk (write-then-record), so a crash between the
//!   two leaves at worst an unrecorded chunk that the rerun overwrites.
//!
//! Loading is deliberately lenient: a line that does not parse — the
//! classic case being the final line of a run killed mid-append — is
//! dropped, which simply re-executes that one task on resume. A task is
//! considered *resumable* only if its manifest line parses **and** the
//! chunk file on disk hashes to the recorded value at the recorded
//! length; anything else (missing chunk, corrupted bytes, truncated
//! manifest entry) falls back to re-execution. Correctness therefore
//! never depends on the manifest: it can only skip work whose output is
//! provably already present.

use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::TaskSpec;

/// Manifest header schema tag.
pub const MANIFEST_FILE_SCHEMA: &str = "mmwave-campaign-manifest/1";

/// File name under the campaign output directory.
pub const MANIFEST_FILE_NAME: &str = "campaign.manifest";

/// FNV-1a 64-bit over `bytes` — the chunk-integrity hash. Std-only, a
/// few cycles per byte, and deterministic across platforms; collision
/// resistance against *accidental* corruption (truncation, bit flips,
/// partial writes) is all resume needs, since a hash-clean chunk is
/// merely *skipped*, never trusted over re-execution for anything else.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of a planned task matrix: everything that determines the
/// artifact bytes of every task, in matrix order. The job count is
/// deliberately excluded: a resume may use a different one.
pub fn fingerprint(tasks: &[TaskSpec]) -> u64 {
    let mut desc = String::new();
    for t in tasks {
        desc.push_str(t.exp.id);
        desc.push(' ');
        desc.push_str(&t.seed.to_string());
        desc.push(' ');
        desc.push_str(if t.quick { "quick" } else { "full" });
        desc.push(' ');
        desc.push_str(t.cc.map_or("default", |c| c.as_str()));
        desc.push(' ');
        desc.push_str(t.prune.map_or("default", |p| p.as_str()));
        desc.push('\n');
    }
    fnv1a64(desc.as_bytes())
}

/// One recorded chunk: the proof that a task's artifact is on disk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkEntry {
    /// FNV-1a 64 of the chunk file's bytes.
    pub hash: u64,
    /// Chunk file length in bytes (cheap pre-check before hashing).
    pub len: u64,
    /// Experiment id.
    pub experiment: String,
    /// Campaign seed.
    pub seed: u64,
    /// Chunk path relative to the output directory.
    pub rel_path: String,
}

impl ChunkEntry {
    /// The ledger line for this entry, newline-terminated — the exact
    /// bytes [`ManifestWriter::append`] writes.
    pub fn render(&self) -> String {
        format!(
            "chunk {:016x} {} {} {} {}\n",
            self.hash, self.len, self.experiment, self.seed, self.rel_path
        )
    }

    /// Parse one *complete* manifest line (caller guarantees the trailing
    /// newline was present). Returns `None` for anything malformed.
    pub fn parse(line: &str) -> Option<ChunkEntry> {
        let mut f = line.split_whitespace();
        if f.next()? != "chunk" {
            return None;
        }
        let hash = u64::from_str_radix(f.next()?, 16).ok()?;
        let len = f.next()?.parse().ok()?;
        let experiment = f.next()?.to_string();
        let seed = f.next()?.parse().ok()?;
        let rel_path = f.next()?.to_string();
        if f.next().is_some() {
            return None; // trailing junk: treat as corrupt
        }
        Some(ChunkEntry {
            hash,
            len,
            experiment,
            seed,
            rel_path,
        })
    }

    /// The chunk file's bytes under `out`, if it exists and matches this
    /// entry's recorded length and hash. A caller that decodes the result
    /// decodes exactly the bytes that were hashed, with one read of the
    /// file, rather than a second read the hash never saw.
    pub fn read_verified(&self, out: &Path) -> Option<Vec<u8>> {
        let bytes = std::fs::read(out.join(&self.rel_path)).ok()?;
        (bytes.len() as u64 == self.len && fnv1a64(&bytes) == self.hash).then_some(bytes)
    }

    /// True if the chunk file under `out` exists and matches this entry's
    /// recorded length and hash.
    pub fn verify(&self, out: &Path) -> bool {
        self.read_verified(out).is_some()
    }
}

/// A loaded manifest: the header fingerprint plus every line that parsed.
#[derive(Clone, Debug)]
pub struct Manifest {
    /// Task-matrix fingerprint from the header.
    pub fingerprint: u64,
    /// Entries in file order (a task completed twice keeps the last).
    pub entries: Vec<ChunkEntry>,
}

impl Manifest {
    /// Load `<out>/campaign.manifest`, tolerating truncation: only lines
    /// terminated by `\n` that are UTF-8 and parse completely are kept.
    /// Returns `None` when the file is missing or its header is unusable —
    /// both mean "nothing to resume from".
    pub fn load(out: &Path) -> Option<Manifest> {
        let bytes = std::fs::read(out.join(MANIFEST_FILE_NAME)).ok()?;
        // Split raw bytes, so a non-UTF-8 byte spoils only its own line.
        let mut lines = bytes.split_inclusive(|&b| b == b'\n');
        let header = std::str::from_utf8(lines.next()?).ok()?;
        if !header.ends_with('\n') {
            return None; // killed while writing the header itself
        }
        let mut h = header.split_whitespace();
        if h.next()? != MANIFEST_FILE_SCHEMA || h.next()? != "fp" {
            return None;
        }
        let fingerprint = u64::from_str_radix(h.next()?, 16).ok()?;
        let mut entries = Vec::new();
        for line in lines {
            // A line without a newline is the torn tail of a killed
            // append; a line that is not UTF-8 or fails to parse is
            // corruption. Either way: drop it, the task re-executes.
            if !line.ends_with(b"\n") {
                continue;
            }
            if let Some(e) = std::str::from_utf8(line).ok().and_then(ChunkEntry::parse) {
                entries.push(e);
            }
        }
        Some(Manifest {
            fingerprint,
            entries,
        })
    }

    /// The last entry recorded for `(experiment, seed)`, if any.
    pub fn entry(&self, experiment: &str, seed: u64) -> Option<&ChunkEntry> {
        self.entries
            .iter()
            .rev()
            .find(|e| e.experiment == experiment && e.seed == seed)
    }
}

/// Append-as-you-go manifest writer. Creation truncates and writes the
/// header (plus any carried-over entries on resume), so the file on disk
/// is always `header + zero or more complete entries + at most one torn
/// tail` — exactly what [`Manifest::load`] tolerates.
pub struct ManifestWriter {
    file: BufWriter<std::fs::File>,
}

impl ManifestWriter {
    /// Create (truncate) the manifest with a fresh header. `carried` are
    /// the verified entries a resume is keeping; rewriting them drops
    /// stale lines (corrupt chunks, torn tails, superseded duplicates)
    /// instead of appending after garbage.
    pub fn create(out: &Path, fingerprint: u64, carried: &[ChunkEntry]) -> io::Result<Self> {
        let mut file = BufWriter::new(std::fs::File::create(out.join(MANIFEST_FILE_NAME))?);
        writeln!(file, "{MANIFEST_FILE_SCHEMA} fp {fingerprint:016x}")?;
        for e in carried {
            file.write_all(e.render().as_bytes())?;
        }
        file.flush()?;
        Ok(ManifestWriter { file })
    }

    /// Append one completed chunk and flush, so the entry survives the
    /// process dying right after. Call only after the chunk file is fully
    /// written (the write-then-record invariant).
    pub fn append(&mut self, entry: &ChunkEntry) -> io::Result<()> {
        self.file.write_all(entry.render().as_bytes())?;
        self.file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn entry(seed: u64) -> ChunkEntry {
        ChunkEntry {
            hash: 0xdead_beef_0123_4567,
            len: 42,
            experiment: "fig09".into(),
            seed,
            rel_path: format!("runs/fig09-s{seed}.json"),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "mmwave-manifest-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&d).expect("mkdir");
        d
    }

    #[test]
    fn fnv_is_stable_and_order_sensitive() {
        // Reference vectors for FNV-1a 64.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }

    #[test]
    fn entries_roundtrip_and_survive_torn_tail() {
        let dir = tmpdir("roundtrip");
        let mut w = ManifestWriter::create(&dir, 0xabc, &[]).expect("create");
        w.append(&entry(1)).expect("append");
        w.append(&entry(2)).expect("append");
        drop(w);

        // Simulate a kill mid-append: a torn final line.
        let path = dir.join(MANIFEST_FILE_NAME);
        let mut text = std::fs::read_to_string(&path).expect("read");
        text.push_str("chunk 00ff 12 fig09 3 runs/fig0"); // no newline
        std::fs::write(&path, &text).expect("write torn");

        let m = Manifest::load(&dir).expect("loads");
        assert_eq!(m.fingerprint, 0xabc);
        assert_eq!(m.entries.len(), 2, "torn tail must be dropped");
        assert_eq!(m.entry("fig09", 2), Some(&entry(2)));
        assert_eq!(m.entry("fig09", 3), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_lines_are_dropped_not_fatal() {
        let dir = tmpdir("corrupt");
        let path = dir.join(MANIFEST_FILE_NAME);
        // A valid entry with one byte that is not UTF-8.
        let mut not_utf8 = entry(3).render().into_bytes();
        not_utf8[8] = 0xff;
        let mut text = format!(
            "{MANIFEST_FILE_SCHEMA} fp 0000000000000abc\n\
             chunk zzzz 1 fig09 1 runs/fig09-s1.json\n"
        )
        .into_bytes();
        text.extend_from_slice(&not_utf8);
        text.extend_from_slice(
            format!(
                "{}chunk 0123 not-a-len fig09 7 runs/x.json\n\
                 garbage line\n",
                entry(2).render()
            )
            .as_bytes(),
        );
        std::fs::write(&path, text).expect("write");
        let m = Manifest::load(&dir).expect("loads");
        assert_eq!(m.entries, vec![entry(2)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_or_headerless_manifest_is_none() {
        let dir = tmpdir("missing");
        assert!(Manifest::load(&dir).is_none());
        std::fs::write(dir.join(MANIFEST_FILE_NAME), "wrong-schema fp 00\n").expect("write");
        assert!(Manifest::load(&dir).is_none());
        std::fs::write(
            dir.join(MANIFEST_FILE_NAME),
            format!("{MANIFEST_FILE_SCHEMA} fp 0a"), // torn header
        )
        .expect("write");
        assert!(Manifest::load(&dir).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_checks_length_and_hash() {
        let dir = tmpdir("verify");
        std::fs::create_dir_all(dir.join("runs")).expect("mkdir");
        let body = b"{\n  \"k\": 1\n}\n";
        let e = ChunkEntry {
            hash: fnv1a64(body),
            len: body.len() as u64,
            experiment: "fig09".into(),
            seed: 1,
            rel_path: "runs/fig09-s1.json".into(),
        };
        assert!(!e.verify(&dir), "missing chunk must not verify");
        std::fs::write(dir.join(&e.rel_path), body).expect("write chunk");
        assert!(e.verify(&dir));
        assert_eq!(e.read_verified(&dir).as_deref(), Some(&body[..]));
        std::fs::write(dir.join(&e.rel_path), b"{\n  \"k\": 2\n}\n").expect("corrupt");
        assert!(!e.verify(&dir), "corrupted chunk must not verify");
        assert_eq!(e.read_verified(&dir), None);
        std::fs::write(dir.join(&e.rel_path), &body[..body.len() - 1]).expect("truncate");
        assert!(!e.verify(&dir), "truncated chunk must not verify");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_tracks_matrix_identity() {
        use mmwave_core::experiments;
        let task = |id: &str, seed| TaskSpec {
            exp: experiments::find(id).expect("registered"),
            exp_index: 0,
            seed,
            quick: true,
            cc: None,
            prune: None,
        };
        let a = fingerprint(&[task("table1", 1), task("fig03", 2)]);
        assert_eq!(
            a,
            fingerprint(&[task("table1", 1), task("fig03", 2)]),
            "deterministic"
        );
        assert_ne!(a, fingerprint(&[task("fig03", 2), task("table1", 1)]));
        assert_ne!(a, fingerprint(&[task("table1", 1), task("fig03", 3)]));
        let mut full = [task("table1", 1), task("fig03", 2)];
        full[0].quick = false;
        assert_ne!(a, fingerprint(&full));
        let mut audit = [task("table1", 1), task("fig03", 2)];
        audit[1].prune = Some(mmwave_channel::PruneMode::Audit);
        assert_ne!(a, fingerprint(&audit));
    }
}
