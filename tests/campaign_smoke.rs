//! Workspace smoke test: a small quick campaign run fully in-process,
//! with its artifacts streamed to disk and parsed back (schema round-trip).

use mmwave_campaign::control::{self, ControlOpts};
use mmwave_campaign::{artifact, json::Json, CampaignConfig, RunStatus};
use mmwave_core::experiments;

#[test]
fn two_experiment_campaign_roundtrips() {
    let cfg = CampaignConfig {
        experiments: ["table1", "fig08"]
            .iter()
            .map(|id| experiments::find(id).expect("registered"))
            .collect(),
        seeds: vec![1],
        quick: true,
        jobs: 2,
        cc: None,
        prune: None,
    };
    let dir = std::env::temp_dir().join(format!("campaign-smoke-{}", std::process::id()));
    let summary = control::run_streaming(&cfg, &dir, &ControlOpts::default()).expect("campaign");
    let result = summary.result;
    assert_eq!(result.records.len(), 2);
    let manifest_path = summary
        .manifest_path
        .expect("written under the output directory");

    // Manifest parses and indexes both runs.
    let manifest = Json::parse(&std::fs::read_to_string(&manifest_path).expect("read"))
        .expect("manifest parses");
    assert_eq!(
        manifest.get("schema").and_then(Json::as_str),
        Some(artifact::MANIFEST_SCHEMA)
    );
    let runs = manifest
        .get("runs")
        .and_then(Json::as_arr)
        .expect("runs index");
    assert_eq!(runs.len(), 2);

    // Every indexed artifact exists and round-trips into a RunRecord that
    // matches the in-memory one.
    for (entry, record) in runs.iter().zip(&result.records) {
        let rel = entry
            .get("artifact")
            .and_then(Json::as_str)
            .expect("artifact path");
        let text = std::fs::read_to_string(dir.join(rel)).expect("run artifact exists");
        let parsed =
            artifact::run_from_json(&Json::parse(&text).expect("run parses")).expect("run decodes");
        assert_eq!(parsed.experiment, record.experiment);
        assert_eq!(parsed.seed, record.seed);
        assert_eq!(parsed.status, record.status);
        assert_eq!(parsed.output, record.output);
        assert_eq!(parsed.engine, record.engine);
        // The quick campaigns actually simulate something.
        assert!(
            parsed.engine.events_popped > 0,
            "{} popped no events",
            parsed.experiment
        );
    }

    // These two experiments are the repo's stable fast ones; the smoke
    // test asserts they pass so campaign wiring failures (wrong seed or
    // quick flag plumbing) surface here.
    assert!(
        result.records.iter().all(|r| r.status == RunStatus::Pass),
        "statuses: {:?}",
        result
            .records
            .iter()
            .map(|r| (r.experiment.clone(), r.status))
            .collect::<Vec<_>>()
    );

    std::fs::remove_dir_all(&dir).ok();
}
