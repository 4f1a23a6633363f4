"""Job requests: content keys, validation, records and the job store."""

import json

import pytest

from repro.engine.config import FlowConfig
from repro.errors import SpecificationError
from repro.flow.topology import optimize_topology
from repro.service.jobs import (
    JobRecord,
    JobStore,
    RESULT_FILENAME,
    build_config,
    parse_request,
    topology_payload,
)
from repro.specs.adc import AdcSpec


CAMPAIGN = {"kind": "campaign", "grid": {"resolutions": [10, 11]}}


class TestContentKeys:
    def test_identical_requests_share_a_key(self):
        assert parse_request(CAMPAIGN).key == parse_request(dict(CAMPAIGN)).key

    def test_key_survives_json_formatting_differences(self):
        # Ints vs floats and implicit vs explicit defaults must not split
        # the key — coalescing works on content, not on raw bytes.
        explicit = {
            "kind": "campaign",
            "grid": {
                "resolutions": [10.0, 11.0],
                "sample_rates_hz": [40e6],
                "modes": ["analytic"],
                "corners": ["nom"],
                "full_scale": 2,
            },
        }
        assert parse_request(explicit).key == parse_request(CAMPAIGN).key

    def test_execution_knobs_do_not_split_the_key(self):
        # Results are byte-identical across backend/worker/telemetry
        # choices (the repo-wide guarantee), so those knobs must coalesce.
        tweaked = {
            **CAMPAIGN,
            "config": {
                "backend": "thread",
                "max_workers": 4,
                "telemetry": "trace",
                "eval_speculation": 8,
            },
        }
        assert parse_request(tweaked).key == parse_request(CAMPAIGN).key

    def test_result_relevant_config_splits_the_key(self):
        for config in ({"budget": 99}, {"seed": 3}, {"verify_transient": False}):
            other = {**CAMPAIGN, "config": config}
            assert parse_request(other).key != parse_request(CAMPAIGN).key

    def test_different_grids_split_the_key(self):
        other = {"kind": "campaign", "grid": {"resolutions": [10, 12]}}
        assert parse_request(other).key != parse_request(CAMPAIGN).key

    def test_kinds_split_the_key(self):
        optimize = {"kind": "optimize", "spec": {"resolution_bits": 10}}
        assert parse_request(optimize).key != parse_request(CAMPAIGN).key

    def test_priority_and_client_do_not_split_the_key(self):
        tagged = {**CAMPAIGN, "priority": 5, "client": "alice"}
        assert parse_request(tagged).key == parse_request(CAMPAIGN).key


class TestValidation:
    def test_non_object_body_rejected(self):
        with pytest.raises(SpecificationError, match="JSON object"):
            parse_request([1, 2])

    def test_unknown_kind_names_valid_choices(self):
        with pytest.raises(SpecificationError, match="campaign, optimize"):
            parse_request({"kind": "simulate"})

    def test_unknown_backend_names_valid_choices(self):
        with pytest.raises(SpecificationError, match="process, queue, serial"):
            parse_request({**CAMPAIGN, "config": {"backend": "gpu"}})

    def test_unknown_config_field_names_valid_fields(self):
        with pytest.raises(SpecificationError, match="valid: backend"):
            parse_request({**CAMPAIGN, "config": {"cache_dir": "/tmp/x"}})

    def test_unknown_corner_names_registered_tags(self):
        body = {"kind": "campaign", "grid": {"resolutions": [10], "corners": ["ff"]}}
        with pytest.raises(SpecificationError, match="nom, slow"):
            parse_request(body)

    def test_missing_resolutions_rejected(self):
        with pytest.raises(SpecificationError, match="resolutions"):
            parse_request({"kind": "campaign", "grid": {}})

    def test_unknown_grid_field_rejected(self):
        body = {"kind": "campaign", "grid": {"resolutions": [10], "shards": 2}}
        with pytest.raises(SpecificationError, match="unknown grid field"):
            parse_request(body)

    def test_optimize_needs_resolution(self):
        with pytest.raises(SpecificationError, match="resolution_bits"):
            parse_request({"kind": "optimize", "spec": {}})

    def test_optimize_unknown_mode_rejected(self):
        body = {"kind": "optimize", "spec": {"resolution_bits": 10}, "mode": "spice"}
        with pytest.raises(SpecificationError, match="analytic, synthesis"):
            parse_request(body)

    def test_non_integer_priority_rejected(self):
        with pytest.raises(SpecificationError, match="priority"):
            parse_request({**CAMPAIGN, "priority": "high"})

    def test_build_config_applies_server_cache_dir(self):
        config = build_config({"budget": 123}, cache_dir="/tmp/cache")
        assert config == FlowConfig(budget=123, cache_dir="/tmp/cache")

    def test_retired_kernel_fields_are_accepted_and_ignored(self):
        # Older clients always sent these, and stored job bodies carry them.
        for depth in (-1, 0, 8):
            legacy = {"budget": 123, "dc_kernel": "chained", "eval_speculation": depth}
            assert build_config(legacy) == FlowConfig(budget=123)
        old_body = {**CAMPAIGN, "config": {"dc_kernel": "chained", "eval_speculation": 8}}
        assert parse_request(old_body).key == parse_request(CAMPAIGN).key

    @pytest.mark.parametrize(
        "retired",
        [
            {"eval_kernel": "compiled"},
            {"eval_kernel": "legacy"},
            {"behavioral_kernel": "batch"},
            {"behavioral_kernel": "legacy"},
            {"eval_kernel": "legacy", "behavioral_kernel": "legacy"},
        ],
    )
    def test_retired_selectors_are_accepted_and_ignored(self, retired):
        # Every value older clients could send, on its own or together.
        assert build_config({"budget": 123, **retired}) == FlowConfig(budget=123)
        old_body = {**CAMPAIGN, "config": retired}
        assert parse_request(old_body).key == parse_request(CAMPAIGN).key

    @pytest.mark.parametrize("value", ["batched", "lockstep"])
    def test_retired_dc_kernel_rejects_other_values(self, value):
        with pytest.raises(SpecificationError, match="unknown DC kernel") as info:
            build_config({"dc_kernel": value})
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("eval_kernel", "quantum", "unknown eval kernel"),
            ("eval_kernel", None, "unknown eval kernel"),
            ("behavioral_kernel", "vectorized", "unknown behavioral kernel"),
            ("behavioral_kernel", 1, "unknown behavioral kernel"),
        ],
    )
    def test_retired_selectors_reject_other_values(self, field, value, message):
        with pytest.raises(SpecificationError, match=message) as info:
            build_config({field: value})
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("budget", "x"),
            ("budget", 0),
            ("budget", 12.0),
            ("budget", True),
            ("retarget_budget", -5),
            ("seed", "1"),
            ("seed", -1),
            ("retarget_seed", None),
            ("behavioral_draws", 0),
            ("behavioral_seed", False),
            ("verify_transient", "no"),
            ("verify_transient", 0),
            ("verify_transient", None),
            ("max_workers", 0),
            ("max_workers", "4"),
            ("max_workers", True),
        ],
    )
    def test_mistyped_values_are_refused(self, field, value):
        # Refused at submission, not inside the job: "no" is truthy and
        # would otherwise run (and coalesce onto) a verifying job.
        with pytest.raises(SpecificationError, match=field) as info:
            build_config({field: value})
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize(
        "config",
        [
            {"budget": 1, "retarget_budget": 1, "behavioral_draws": 1},
            {"seed": 0, "retarget_seed": 0, "behavioral_seed": 0},
            {"verify_transient": False},
            {"max_workers": None},
            {"max_workers": 1},
        ],
    )
    def test_boundary_values_are_accepted(self, config):
        assert build_config(config) == FlowConfig(**config)

    def test_retired_speculation_rejects_non_integers(self):
        with pytest.raises(SpecificationError, match="eval_speculation"):
            build_config({"eval_speculation": "auto"})


class TestRecordsAndStore:
    def test_record_roundtrip(self):
        request = parse_request(CAMPAIGN)
        record = JobRecord(
            key=request.key,
            kind=request.kind,
            request=request.body,
            seq=3,
            priority=1,
            client="alice",
        )
        twin = JobRecord.from_json(record.to_json().decode("utf-8"))
        assert twin == record
        assert twin.job_id == request.key[:12]

    def test_store_persists_and_orders_by_seq(self, tmp_path):
        store = JobStore(tmp_path)
        for seq, bits in ((2, [10]), (1, [11])):
            request = parse_request(
                {"kind": "campaign", "grid": {"resolutions": bits}}
            )
            store.save(
                JobRecord(
                    key=request.key,
                    kind=request.kind,
                    request=request.body,
                    seq=seq,
                )
            )
        loaded = store.load_all()
        assert [r.seq for r in loaded] == [1, 2]

    def test_stored_record_with_retired_fields_recovers(self, tmp_path):
        # Records persisted by older servers carry the retired kernel knobs
        # in their request body; recovery must still rebuild the config.
        store = JobStore(tmp_path)
        request = parse_request(CAMPAIGN)
        old_body = {
            **request.body,
            "config": {"budget": 90, "dc_kernel": "chained", "eval_speculation": 8},
        }
        store.save(JobRecord(key=request.key, kind="campaign", request=old_body))
        (loaded,) = store.load_all()
        assert build_config(loaded.request["config"]) == FlowConfig(budget=90)

    def test_corrupt_record_is_skipped(self, tmp_path):
        store = JobStore(tmp_path)
        request = parse_request(CAMPAIGN)
        store.save(
            JobRecord(key=request.key, kind="campaign", request=request.body)
        )
        (store.jobs_dir / "zzzz.json").write_text("{broken", encoding="utf-8")
        assert [r.key for r in store.load_all()] == [request.key]

    def test_result_marker_and_artifacts(self, tmp_path):
        store = JobStore(tmp_path)
        key = "k" * 64
        assert not store.result_ready(key)
        assert store.read_result(key) is None
        store.write_result(key, b'{"ok":true}\n')
        assert store.result_ready(key)
        assert store.read_result(key) == b'{"ok":true}\n'
        assert list(store.artifacts(key)) == [RESULT_FILENAME]
        # Campaign store artifacts appear once the files exist.
        store_dir = store.campaign_store_dir(key)
        store_dir.mkdir(parents=True)
        (store_dir / "results.jsonl").write_text("{}\n", encoding="utf-8")
        assert set(store.artifacts(key)) == {RESULT_FILENAME, "results.jsonl"}


class TestPayloads:
    def test_topology_payload_is_canonical_and_deterministic(self):
        result = optimize_topology(AdcSpec(resolution_bits=10))
        twin = optimize_topology(AdcSpec(resolution_bits=10))
        assert topology_payload(result) == topology_payload(twin)
        payload = json.loads(topology_payload(result))
        assert payload["winner"] == result.best.label
        assert payload["spec"]["resolution_bits"] == 10
        assert payload["rankings"][0][0] == result.best.label
