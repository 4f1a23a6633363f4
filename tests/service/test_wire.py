"""The wire module: round-trips, schema gates, and byte-stability contracts."""

import json

import pytest

from repro.engine.persist import digest
from repro.engine.scheduler import SynthesisJob
from repro.service import wire
from repro.specs.adc import AdcSpec
from repro.tech import CMOS025


def _job(**overrides) -> SynthesisJob:
    spec = AdcSpec(resolution_bits=10)
    fields = dict(
        spec=spec, tech=CMOS025, budget=60, seed=1, verify_transient=False
    )
    fields.update(overrides)
    return SynthesisJob(**fields)


class TestTaskEnvelopes:
    def test_roundtrip(self):
        envelope = wire.encode_task(digest, {"n": [1, 2, 3]})
        assert envelope["schema"] == wire.WIRE_SCHEMA
        fn_name, task = wire.decode_task(envelope)
        assert fn_name == "repro.engine.persist.digest"
        assert task == {"n": [1, 2, 3]}

    def test_envelope_is_json_serializable(self):
        envelope = wire.encode_task(digest, {"n": 1})
        assert json.loads(json.dumps(envelope)) == envelope

    def test_rejects_newer_schema(self):
        envelope = wire.encode_task(digest, {"n": 1})
        envelope["schema"] = wire.WIRE_SCHEMA + 1
        with pytest.raises(ValueError, match="newer"):
            wire.decode_task(envelope)

    def test_rejects_missing_or_undotted_fn(self):
        envelope = wire.encode_task(digest, {"n": 1})
        for bad in (None, "", "digest", 42):
            mutated = {**envelope, "fn": bad}
            with pytest.raises(ValueError, match="importable fn"):
                wire.decode_task(mutated)

    def test_rejects_unreadable_body(self):
        envelope = wire.encode_task(digest, {"n": 1})
        for bad in ("!!! not base64 !!!", "gA==", None):
            with pytest.raises(ValueError, match="unreadable"):
                wire.decode_task({**envelope, "task_pkl": bad})
        with pytest.raises(ValueError):
            wire.decode_task("not a dict")

    def test_function_name_is_importable_identity(self):
        assert wire.function_name(digest) == "repro.engine.persist.digest"


class TestResultPayloads:
    def test_raw_roundtrip(self):
        value = {"power": 1.25e-3, "labels": ("a", "b")}
        assert wire.decode_result(wire.encode_result(value)) == value

    def test_b64_roundtrip(self):
        payload = wire.encode_result([1, 2, 3])
        assert wire.decode_result_b64(wire.encode_result_b64(payload)) == payload

    def test_b64_rejects_garbage(self):
        with pytest.raises(ValueError, match="base64"):
            wire.decode_result_b64("!!! definitely not base64 !!!")


class TestRestrictedUnpickling:
    """The RCE gate: wire payloads decode through an allow-list, not pickle."""

    def test_repro_classes_and_plain_data_round_trip(self):
        import numpy as np

        job = _job()
        payload = wire.encode_result(
            {"job": job, "gains": np.asarray([0.5, 1.0]), "label": ("a", 1)}
        )
        decoded = wire.restricted_loads(payload)
        assert decoded["job"] == job
        assert decoded["gains"].tolist() == [0.5, 1.0]

    def test_stdlib_call_gadgets_are_blocked(self):
        import pickle

        class Gadget:
            def __reduce__(self):
                import os

                return (os.system, ("true",))

        payload = pickle.dumps(Gadget())
        with pytest.raises(pickle.UnpicklingError, match="may not reference"):
            wire.restricted_loads(payload)

    def test_builtins_beyond_data_types_are_blocked(self):
        import pickle

        class Gadget:
            def __reduce__(self):
                return (eval, ("1+1",))

        with pytest.raises(pickle.UnpicklingError, match="may not reference"):
            wire.restricted_loads(pickle.dumps(Gadget()))

    def test_repro_functions_are_blocked(self):
        # Classes reconstruct state; module-level *functions* are REDUCE
        # call gadgets even inside our own package (atomic_write_bytes
        # would be a file-write primitive), so only classes pass.
        import pickle

        class Gadget:
            def __reduce__(self):
                return (wire.canonical_json, ({},))

        with pytest.raises(pickle.UnpicklingError, match="classes"):
            wire.restricted_loads(pickle.dumps(Gadget()))

    def test_decode_task_rejects_gadget_payloads_as_unreadable(self):
        import base64
        import pickle

        class Gadget:
            def __reduce__(self):
                import os

                return (os.system, ("true",))

        envelope = wire.encode_task(digest, {"n": 1})
        envelope["task_pkl"] = base64.b64encode(
            pickle.dumps(Gadget())
        ).decode("ascii")
        with pytest.raises(ValueError, match="unreadable"):
            wire.decode_task(envelope)


class TestLeases:
    def test_v1_roundtrip(self):
        body = wire.lease_body(pid=1234, worker="w1", host="h", deadline=42.5)
        parsed = wire.parse_lease(body)
        assert parsed == {
            "pid": 1234,
            "worker": "w1",
            "host": "h",
            "deadline": 42.5,
        }
        assert json.loads(body)["schema"] == wire.WIRE_SCHEMA

    def test_optional_fields_stay_out_of_the_body(self):
        assert json.loads(wire.lease_body(pid=1)) == {
            "schema": wire.WIRE_SCHEMA,
            "pid": 1,
        }

    def test_pr4_dict_lease_parses(self):
        parsed = wire.parse_lease(json.dumps({"pid": 77}))
        assert parsed["pid"] == 77
        assert parsed["worker"] is None and parsed["deadline"] is None

    def test_bare_int_lease_parses(self):
        assert wire.parse_lease("88")["pid"] == 88

    @pytest.mark.parametrize(
        "garbage", ["", "{truncated", "\x00\xff binary", "[]", '{"pid": "x"}']
    )
    def test_garbage_parses_to_a_dead_claim(self, garbage):
        parsed = wire.parse_lease(garbage)
        assert parsed["pid"] == 0
        assert parsed["deadline"] is None


class TestSynthesisTaskPayload:
    def test_matches_queue_payload(self):
        job = _job()
        assert wire.synthesis_task_payload(job) == job.queue_payload()

    def test_exact_pr4_shape(self):
        # Hand-built expected dict: the digest of this payload keys every
        # persisted ack, so any key/default drift here is a broken store.
        job = _job()
        assert wire.synthesis_task_payload(job) == {
            "kind": "synthesis_job",
            "spec": job.spec,
            "tech": job.tech,
            "budget": 60,
            "seed": 1,
            "verify_transient": False,
            "donor": None,
            "retarget_budget": 80,
            "retarget_seed": 7,
        }

    def test_performance_knobs_never_enter_the_digest(self):
        base = digest(wire.synthesis_task_payload(_job()))
        tweaked = _job(template_dir="/tmp/x")
        assert digest(wire.synthesis_task_payload(tweaked)) == base


class TestResultSummaries:
    def test_canonical_json_shape(self):
        blob = wire.canonical_json({"b": 1, "a": [1.5]})
        assert blob == b'{"a":[1.5],"b":1}\n'

    def test_campaign_payload_is_schema_tagged_canonical_json(self):
        class Record:
            label = "k10_40M_analytic"
            winner = "2-2-2-2-2-f"
            winner_power_w = 0.002
            fom_j_per_step = 1e-12

        payload = json.loads(wire.campaign_payload([Record()]))
        assert payload["schema"] == wire.WIRE_SCHEMA
        assert payload["kind"] == "campaign"
        assert payload["scenarios"][0]["label"] == "k10_40M_analytic"
        # Stable bytes: same records, same bytes.
        assert wire.campaign_payload([Record()]) == wire.campaign_payload(
            [Record()]
        )

    def test_topology_payload_matches_the_service_export(self):
        # The service re-exports wire's serializers; both names must be the
        # same object so the two serialization paths can never diverge.
        from repro.service import campaign_payload, topology_payload
        from repro.service.jobs import (
            campaign_payload as jobs_campaign,
            topology_payload as jobs_topology,
        )

        assert campaign_payload is wire.campaign_payload is jobs_campaign
        assert topology_payload is wire.topology_payload is jobs_topology
