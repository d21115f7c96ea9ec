//! Structured campaign artifacts: the manifest and per-run reports.
//!
//! Layout under the output directory:
//!
//! ```text
//! <out>/manifest.json          — campaign summary + index of runs
//! <out>/runs/<id>-s<seed>.json — one structured report per matrix cell
//! ```
//!
//! Everything except *execution metadata* is a pure function of the
//! campaign matrix, so artifacts produced with different `--jobs` values
//! (or by a `--resume` rerun) are byte-identical after
//! [`normalize_execution`]. Execution metadata is
//! exactly: every `wall_ms` field, the manifest's `jobs` / `workers` /
//! `tasks_resumed` / `chunks_streamed` fields, and every `chunk_hash`
//! (which hashes on-disk chunk bytes — wall time included — so it is
//! integrity metadata, not campaign physics).
//!
//! Schemas (see DESIGN.md for the field-by-field description):
//!
//! * manifest: `schema = "mmwave-campaign/2"` (v2 added the streaming
//!   control-plane execution fields: `workers`, `tasks_resumed`,
//!   `chunks_streamed`, and a per-run `chunk_hash` integrity line)
//! * run:      `schema = "mmwave-campaign-run/10"` (v2 added the
//!   `engine.link_gain_*` cache counters; v3 added the `scenario` label
//!   and the `engine.scenario_mutations` / `engine.faults_injected`
//!   fault-scenario counters; v4 added the `engine.codebook_hits` /
//!   `engine.codebook_misses` pattern-synthesis cache counters; v5
//!   sources every `engine.*` counter from the task's private
//!   [`mmwave_sim::ctx::SimCtx`] instead of thread-local accumulators —
//!   same fields, now provably isolated per task; v6 added the
//!   `engine.cc_reports_folded` / `engine.cc_patterns_installed` /
//!   `engine.cc_loss_epochs` congestion-plane counters; v7 added the
//!   `engine.codebook_prebuilt_hits` counter for cache misses resolved
//!   from the campaign-wide prebuilt codebook pool; v8 added the
//!   `engine.spatial_pruned_pairs` / `engine.spatial_zone_invalidations`
//!   interference-graph counters; v9 made run reports double as the
//!   streamed artifact *chunks* the control plane appends incrementally
//!   — the fields are unchanged, the engine block is now encoded and
//!   decoded through [`EngineCounters::FIELDS`] so the marshalling
//!   cannot drift from the schema; v10 removed
//!   `engine.events_cancelled` with the event queue's cancellation, so
//!   superseded MAC timeouts now count in `engine.events_popped`)

use crate::json::Json;
use crate::{CampaignResult, RunRecord, RunStatus};
use mmwave_sim::metrics::EngineCounters;

pub const MANIFEST_SCHEMA: &str = "mmwave-campaign/2";
pub const RUN_SCHEMA: &str = "mmwave-campaign-run/10";

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Relative artifact path for one run: `runs/<id>-s<seed>.json`.
pub fn run_artifact_name(experiment: &str, seed: u64) -> String {
    format!("runs/{experiment}-s{seed}.json")
}

/// Encode one run record.
pub fn run_to_json(r: &RunRecord) -> Json {
    obj(vec![
        ("schema", Json::Str(RUN_SCHEMA.into())),
        ("experiment", Json::Str(r.experiment.clone())),
        ("title", Json::Str(r.title.clone())),
        ("seed", Json::Int(r.seed)),
        ("quick", Json::Bool(r.quick)),
        ("scenario", Json::Str(r.scenario.clone())),
        ("status", Json::Str(r.status.as_str().into())),
        (
            "violations",
            Json::Arr(r.violations.iter().map(|v| Json::Str(v.clone())).collect()),
        ),
        (
            "panic",
            r.panic_message.clone().map_or(Json::Null, Json::Str),
        ),
        ("output", Json::Str(r.output.clone())),
        ("wall_ms", Json::Num(r.wall_ms)),
        (
            "engine",
            // Encoded from the counter field table so the schema, the
            // decoder and the struct can never disagree on field set or
            // order.
            Json::Obj(
                r.engine
                    .fields()
                    .map(|(name, value)| (name.to_string(), Json::Int(value)))
                    .collect(),
            ),
        ),
    ])
}

/// Decode one run record (inverse of [`run_to_json`]).
pub fn run_from_json(v: &Json) -> Result<RunRecord, String> {
    let field = |k: &str| v.get(k).ok_or_else(|| format!("missing field '{k}'"));
    let schema = field("schema")?.as_str().ok_or("schema must be a string")?;
    if schema != RUN_SCHEMA {
        return Err(format!("unknown run schema '{schema}'"));
    }
    let engine_json = field("engine")?;
    let mut engine = EngineCounters::default();
    for name in EngineCounters::FIELDS {
        let value = engine_json
            .get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("engine.{name} must be a non-negative integer"))?;
        assert!(engine.set(name, value), "FIELDS names are valid");
    }
    Ok(RunRecord {
        experiment: field("experiment")?
            .as_str()
            .ok_or("experiment must be a string")?
            .into(),
        title: field("title")?
            .as_str()
            .ok_or("title must be a string")?
            .into(),
        seed: field("seed")?
            .as_u64()
            .ok_or("seed must be a non-negative integer")?,
        quick: field("quick")?.as_bool().ok_or("quick must be a bool")?,
        scenario: field("scenario")?
            .as_str()
            .ok_or("scenario must be a string")?
            .into(),
        status: field("status")?
            .as_str()
            .and_then(RunStatus::parse)
            .ok_or("status must be pass|shape-fail|panicked")?,
        violations: field("violations")?
            .as_arr()
            .ok_or("violations must be an array")?
            .iter()
            .map(|x| {
                x.as_str()
                    .map(String::from)
                    .ok_or("violation must be a string")
            })
            .collect::<Result<_, _>>()?,
        panic_message: match field("panic")? {
            Json::Null => None,
            Json::Str(s) => Some(s.clone()),
            _ => return Err("panic must be null or a string".into()),
        },
        output: field("output")?
            .as_str()
            .ok_or("output must be a string")?
            .into(),
        wall_ms: field("wall_ms")?
            .as_f64()
            .ok_or("wall_ms must be a number")?,
        engine,
    })
}

/// Encode the campaign manifest: config echo, totals, and a run index.
///
/// Each run line carries a `chunk_hash` — the FNV-1a 64 hash of the run's
/// on-disk artifact chunk bytes (exactly what [`run_to_json`] renders; the
/// codec round-trips bit-exactly, so re-encoding a decoded chunk
/// reproduces the disk bytes). The resumable control-plane manifest
/// records the same hashes, making the two indexes cross-checkable.
pub fn manifest_to_json(result: &CampaignResult) -> Json {
    let (passed, shape_failed, panicked) = result.counts();
    obj(vec![
        ("schema", Json::Str(MANIFEST_SCHEMA.into())),
        ("quick", Json::Bool(result.quick)),
        (
            "seeds",
            Json::Arr(result.seeds.iter().map(|&s| Json::Int(s)).collect()),
        ),
        ("total_runs", Json::Int(result.records.len() as u64)),
        ("passed", Json::Int(passed as u64)),
        ("shape_failed", Json::Int(shape_failed as u64)),
        ("panicked", Json::Int(panicked as u64)),
        ("jobs", Json::Int(result.jobs as u64)),
        ("workers", Json::Int(result.workers as u64)),
        ("tasks_resumed", Json::Int(result.tasks_resumed)),
        ("chunks_streamed", Json::Int(result.chunks_streamed)),
        ("wall_ms", Json::Num(result.wall_ms)),
        (
            "runs",
            Json::Arr(
                result
                    .records
                    .iter()
                    .map(|r| {
                        let chunk = run_to_json(r).render();
                        obj(vec![
                            ("experiment", Json::Str(r.experiment.clone())),
                            ("title", Json::Str(r.title.clone())),
                            ("seed", Json::Int(r.seed)),
                            ("status", Json::Str(r.status.as_str().into())),
                            (
                                "artifact",
                                Json::Str(run_artifact_name(&r.experiment, r.seed)),
                            ),
                            (
                                "chunk_hash",
                                Json::Str(format!(
                                    "{:016x}",
                                    crate::manifest::fnv1a64(chunk.as_bytes())
                                )),
                            ),
                            ("wall_ms", Json::Num(r.wall_ms)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Zero out execution metadata in place, at any nesting depth: every
/// `wall_ms` field, the `jobs` / `workers` / `tasks_resumed` /
/// `chunks_streamed` scheduling fields, and every `chunk_hash` (it hashes
/// chunk bytes that include a wall time). After this, artifacts from the
/// same matrix are byte-identical regardless of job count or how many
/// tasks a `--resume` rerun skipped.
pub fn normalize_execution(v: &mut Json) {
    match v {
        Json::Obj(fields) => {
            for (k, val) in fields.iter_mut() {
                match k.as_str() {
                    "wall_ms" => *val = Json::Num(0.0),
                    "jobs" | "workers" | "tasks_resumed" | "chunks_streamed" => *val = Json::Int(0),
                    "chunk_hash" => *val = Json::Str("0000000000000000".into()),
                    _ => normalize_execution(val),
                }
            }
        }
        Json::Arr(items) => {
            for item in items.iter_mut() {
                normalize_execution(item);
            }
        }
        _ => {}
    }
}

/// Render `v` with execution metadata masked — the canonical byte form
/// every determinism/equivalence suite compares. One definition instead
/// of a per-test reimplementation: a new volatile field gets masked here
/// (and in [`normalize_execution`]) exactly once.
pub fn canonicalize(v: &Json) -> String {
    let mut c = v.clone();
    normalize_execution(&mut c);
    c.render()
}

/// [`canonicalize`] for artifact text read back from disk (chunk files,
/// written manifests). Errors on unparseable JSON.
pub fn canonicalize_text(text: &str) -> Result<String, String> {
    Ok(canonicalize(&Json::parse(text).map_err(|e| e.to_string())?))
}

/// The full canonical artifact set for a completed campaign, in artifact
/// order: `manifest.json` first, then one `runs/<id>-s<seed>.json` chunk
/// per record. Each body is [`canonicalize`]d, so two sets from the same
/// matrix compare byte-equal regardless of jobs/workers/resume.
pub fn canonical_artifacts(result: &CampaignResult) -> Vec<(String, String)> {
    let mut files = Vec::with_capacity(result.records.len() + 1);
    files.push((
        "manifest.json".to_string(),
        canonicalize(&manifest_to_json(result)),
    ));
    for r in &result.records {
        files.push((
            run_artifact_name(&r.experiment, r.seed),
            canonicalize(&run_to_json(r)),
        ));
    }
    files
}

/// [`canonical_artifacts`] folded into one diffable document (the golden
/// test's on-disk format): `=== <name> ===` headers, a blank line after
/// each body.
pub fn canonical_document(result: &CampaignResult) -> String {
    let mut doc = String::new();
    for (name, body) in canonical_artifacts(result) {
        doc.push_str(&format!("=== {name} ===\n"));
        doc.push_str(&body);
        doc.push('\n');
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(status: RunStatus) -> RunRecord {
        let mut engine = EngineCounters::default();
        for (i, f) in EngineCounters::FIELDS.iter().enumerate() {
            engine.set(f, 1000 + 17 * i as u64);
        }
        RunRecord {
            experiment: "fig09".into(),
            title: "Fig. 9: WiGig data frame length".into(),
            seed: 42,
            quick: true,
            scenario: "point-to-point".into(),
            status,
            violations: if status == RunStatus::ShapeFail {
                vec!["median off by 2×".into()]
            } else {
                vec![]
            },
            output: "== table ==\nrow 1\n".into(),
            panic_message: if status == RunStatus::Panicked {
                Some("boom".into())
            } else {
                None
            },
            wall_ms: 12.5,
            engine,
        }
    }

    #[test]
    fn run_record_roundtrips_through_json_text() {
        for status in [RunStatus::Pass, RunStatus::ShapeFail, RunStatus::Panicked] {
            let r = record(status);
            let text = run_to_json(&r).render();
            let back = run_from_json(&Json::parse(&text).expect("parses")).expect("decodes");
            assert_eq!(back.experiment, r.experiment);
            assert_eq!(back.scenario, r.scenario);
            assert_eq!(back.status, r.status);
            assert_eq!(back.violations, r.violations);
            assert_eq!(back.panic_message, r.panic_message);
            assert_eq!(back.output, r.output);
            assert_eq!(back.wall_ms, r.wall_ms);
            assert_eq!(back.engine, r.engine);
        }
    }

    #[test]
    fn decode_rejects_wrong_schema_and_missing_fields() {
        let mut j = run_to_json(&record(RunStatus::Pass));
        if let Json::Obj(fields) = &mut j {
            fields[0].1 = Json::Str("other/9".into());
        }
        assert!(run_from_json(&j).is_err());
        assert!(run_from_json(&Json::Obj(vec![])).is_err());
    }

    fn result() -> CampaignResult {
        CampaignResult {
            records: vec![record(RunStatus::Pass)],
            seeds: vec![42],
            quick: true,
            jobs: 8,
            workers: 2,
            tasks_resumed: 3,
            chunks_streamed: 5,
            wall_ms: 777.7,
        }
    }

    #[test]
    fn normalize_zeroes_execution_metadata() {
        let mut m = manifest_to_json(&result());
        normalize_execution(&mut m);
        assert_eq!(m.get("wall_ms"), Some(&Json::Num(0.0)));
        assert_eq!(m.get("jobs"), Some(&Json::Int(0)));
        assert_eq!(m.get("workers"), Some(&Json::Int(0)));
        assert_eq!(m.get("tasks_resumed"), Some(&Json::Int(0)));
        assert_eq!(m.get("chunks_streamed"), Some(&Json::Int(0)));
        let runs = m.get("runs").and_then(Json::as_arr).expect("runs");
        assert_eq!(runs[0].get("wall_ms"), Some(&Json::Num(0.0)));
        assert_eq!(
            runs[0].get("chunk_hash"),
            Some(&Json::Str("0000000000000000".into()))
        );
    }

    #[test]
    fn canonical_artifacts_mask_only_execution_metadata() {
        // Same matrix, different execution metadata: canonical bytes must
        // agree; raw manifests must not (the fields exist and differ).
        let a = result();
        let mut b = result();
        b.jobs = 1;
        b.workers = 0;
        b.tasks_resumed = 0;
        b.chunks_streamed = 1;
        b.wall_ms = 1.0;
        b.records[0].wall_ms = 99.0;
        assert_ne!(manifest_to_json(&a).render(), manifest_to_json(&b).render());
        assert_eq!(canonical_artifacts(&a), canonical_artifacts(&b));
        // And the document form round-trips through disk text.
        let (name, body) = &canonical_artifacts(&a)[1];
        assert_eq!(name, "runs/fig09-s42.json");
        let raw = run_to_json(&a.records[0]).render();
        assert_eq!(&canonicalize_text(&raw).expect("parses"), body);
        let doc = canonical_document(&a);
        assert!(doc.starts_with("=== manifest.json ===\n"));
        assert!(doc.contains("=== runs/fig09-s42.json ===\n"));
    }

    #[test]
    fn artifact_names_are_stable() {
        assert_eq!(run_artifact_name("fig12", 7), "runs/fig12-s7.json");
    }
}
