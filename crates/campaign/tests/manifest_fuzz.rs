//! Seeded randomized suite for the resume ledger, the file `--resume`
//! reads back from disk. Std-only, with a fixed seed and fixed iteration
//! counts, so every run checks the same inputs and a failure reproduces
//! exactly. `ChunkEntry` lines round-trip through `render` and `parse`,
//! and a real ledger that is truncated, bit-flipped or line-shuffled
//! never makes `Manifest::load` or `ChunkEntry::parse` panic: the loader
//! keeps exactly the lines the damage left whole.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use mmwave_campaign::manifest::{self, ChunkEntry, Manifest, ManifestWriter, MANIFEST_FILE_NAME};
use mmwave_sim::rng::SimRng;

const SEED: u64 = 0x6c65_6467_6572_6675;

/// Random entries per round-trip run.
const ENTRIES: usize = 5_000;

/// Random bit-flip mutants of the real ledger.
const FLIPS: usize = 2_000;

/// Random line shuffles of the real ledger.
const SHUFFLES: usize = 1_000;

/// Building blocks for experiment ids and chunk paths: anything but
/// whitespace, which separates a ledger line's fields.
const PIECES: &[&str] = &[
    "fig09", "table1", "s", "7", "-", "_", ".", "/", "json", "é", "中", "😀", "chunk",
];

const FP: u64 = 0x0123_4567_89ab_cdef;

fn below(rng: &mut SimRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

fn token(rng: &mut SimRng) -> String {
    (0..1 + below(rng, 4))
        .map(|_| PIECES[below(rng, PIECES.len())])
        .collect()
}

/// A ledger as the control plane writes it: a header, four entries
/// carried over by a resume, then eight appended ones.
fn real_ledger(dir: &Path) -> (Vec<u8>, Vec<ChunkEntry>) {
    let entries: Vec<ChunkEntry> = (1..=12u64)
        .map(|seed| ChunkEntry {
            hash: manifest::fnv1a64(&seed.to_le_bytes()),
            len: 1_000 + 37 * seed,
            experiment: ["fig09", "table1", "dynblock"][seed as usize % 3].into(),
            seed,
            rel_path: format!("runs/exp-s{seed}.json"),
        })
        .collect();
    let mut writer = ManifestWriter::create(dir, FP, &entries[..4]).expect("create ledger");
    for e in &entries[4..] {
        writer.append(e).expect("append");
    }
    drop(writer);
    let bytes = std::fs::read(dir.join(MANIFEST_FILE_NAME)).expect("read ledger");
    (bytes, entries)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("mmwave-manifest-fuzz-{tag}-{pid}"));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Load `bytes` as the ledger under `dir`, parsing every line on its own
/// too, and fail with the input named if either panics.
fn load_must_not_panic(dir: &Path, bytes: &[u8], what: &str) -> Option<Manifest> {
    std::fs::write(dir.join(MANIFEST_FILE_NAME), bytes).expect("write ledger");
    catch_unwind(AssertUnwindSafe(|| {
        for line in String::from_utf8_lossy(bytes).split_inclusive('\n') {
            ChunkEntry::parse(line);
        }
        Manifest::load(dir)
    }))
    .unwrap_or_else(|_| panic!("ledger loader panicked on {what}"))
}

#[test]
fn random_entries_roundtrip_through_render_and_parse() {
    let mut rng = SimRng::root(SEED);
    for i in 0..ENTRIES {
        let e = ChunkEntry {
            hash: rng.next_u64(),
            len: rng.next_u64() >> below(&mut rng, 64),
            experiment: token(&mut rng),
            seed: rng.next_u64() >> below(&mut rng, 64),
            rel_path: token(&mut rng),
        };
        let line = e.render();
        assert_eq!(ChunkEntry::parse(&line), Some(e), "entry {i}: {line:?}");
    }
}

#[test]
fn truncated_ledgers_keep_exactly_the_completed_lines() {
    let dir = tmp_dir("truncate");
    let (ledger, entries) = real_ledger(&dir);
    for cut in 0..=ledger.len() {
        let m = load_must_not_panic(&dir, &ledger[..cut], &format!("cut {cut}"));
        let complete = ledger[..cut].iter().filter(|&&b| b == b'\n').count();
        match m {
            None => assert_eq!(complete, 0, "cut {cut}: header was complete"),
            Some(m) => {
                assert_eq!(m.fingerprint, FP, "cut {cut}");
                assert_eq!(m.entries, entries[..complete - 1], "cut {cut}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flips_spoil_only_the_lines_they_hit() {
    let dir = tmp_dir("flip");
    let (ledger, entries) = real_ledger(&dir);
    // The line each byte belongs to; line 0 is the header.
    let mut line_of = Vec::new();
    for (line, bytes) in ledger.split_inclusive(|&b| b == b'\n').enumerate() {
        line_of.extend(std::iter::repeat_n(line, bytes.len()));
    }
    let mut rng = SimRng::root(SEED ^ 1);
    for i in 0..FLIPS {
        let mut bytes = ledger.clone();
        let mut spoiled = vec![false; entries.len() + 2];
        for _ in 0..1 + below(&mut rng, 3) {
            let at = below(&mut rng, bytes.len());
            bytes[at] ^= 1 << below(&mut rng, 8);
            // A flipped newline runs its line into the next one.
            spoiled[line_of[at]] = true;
            spoiled[line_of[at] + usize::from(ledger[at] == b'\n')] = true;
        }
        let m = load_must_not_panic(&dir, &bytes, &format!("mutant {i}"));
        if spoiled[0] {
            continue; // the header decides whether anything loads
        }
        let m = m.unwrap_or_else(|| panic!("mutant {i}: intact header did not load"));
        assert_eq!(m.fingerprint, FP, "mutant {i}");
        let mut loaded = m.entries.iter();
        for (e, _) in entries.iter().zip(&spoiled[1..]).filter(|(_, &s)| !s) {
            assert!(loaded.any(|l| l == e), "mutant {i}: intact {e:?} lost");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shuffled_lines_load_in_file_order() {
    let dir = tmp_dir("shuffle");
    let (ledger, entries) = real_ledger(&dir);
    let text = String::from_utf8(ledger).expect("utf-8 ledger");
    let header = text.split_inclusive('\n').next().expect("header line");
    let mut rng = SimRng::root(SEED ^ 2);
    for i in 0..SHUFFLES {
        // A permutation, then up to two lines copied over others: some
        // lines twice, some not at all.
        let n = entries.len();
        let mut order: Vec<usize> = (0..n).collect();
        for k in (1..n).rev() {
            order.swap(k, below(&mut rng, k + 1));
        }
        for _ in 0..below(&mut rng, 3) {
            let (to, from) = (below(&mut rng, n), below(&mut rng, n));
            order[to] = order[from];
        }
        let want: Vec<ChunkEntry> = order.iter().map(|&k| entries[k].clone()).collect();
        let mut lines: Vec<String> = want.iter().map(ChunkEntry::render).collect();
        // One ledger in four has its header moved off the first line.
        let header_at = if below(&mut rng, 4) == 0 {
            1 + below(&mut rng, n)
        } else {
            0
        };
        lines.insert(header_at, header.to_string());
        let m = load_must_not_panic(&dir, lines.concat().as_bytes(), &format!("shuffle {i}"));
        if header_at > 0 {
            assert!(m.is_none(), "shuffle {i}: header not first");
            continue;
        }
        let m = m.unwrap_or_else(|| panic!("shuffle {i}: did not load"));
        assert_eq!(m.entries, want, "shuffle {i}");
        for e in &want {
            let last = want.iter().rfind(|w| w.seed == e.seed);
            assert_eq!(m.entry(&e.experiment, e.seed), last, "shuffle {i}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
