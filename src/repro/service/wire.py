"""One wire format for everything that crosses a process boundary.

Before this module, three serializers had grown independently: the job
store's canonical result summaries (``topology_payload`` /
``campaign_payload`` in :mod:`repro.service.jobs`), the work-queue's task
identity payload (:meth:`~repro.engine.scheduler.SynthesisJob.queue_payload`),
and the ad-hoc lease JSON inside :mod:`repro.engine.workqueue`.  The broker
fabric adds a fourth concern — shipping arbitrary ``(fn, task)`` dispatches
to remote workers — so all of them now live here, with explicit schema
versions, and the broker, the job store and the queue share one format.

Layering: this is a *leaf* module — stdlib plus
:mod:`repro.engine.persist` only — so both the engine (broker, work queue,
scheduler) and the service (jobs, server) can import it without cycles.
Engine modules that are part of the ``repro`` package import chain load it
lazily inside functions.

Compatibility contracts enforced by ``tests/service/test_wire.py``:

* :func:`synthesis_task_payload` must stay **byte-identical** to the PR 4
  ``SynthesisJob.queue_payload`` dict — its digest keys every persisted
  ``.ack.pkl``; changing it orphans every completed task on disk.  Its
  ``"kind"`` field is the schema tag (a ``"schema"`` key would change the
  digest).
* Result payloads stay raw :mod:`pickle` bytes on disk (the PR 4 ack
  format — old acks still replay); :func:`encode_result_b64` /
  :func:`decode_result_b64` only wrap them for JSON transport over the
  HTTP broker, and :func:`decode_result` reads them through the
  restricted unpickler described below.
* :func:`parse_lease` accepts every lease body ever written: the v1 fabric
  dict (pid/worker/host/deadline), the PR 4 ``{"pid": N}`` dict, a bare
  integer, and garbage (which parses to a dead claim, never an error).

Trust model: task and result bodies are pickle *bytes* (the PR 4 ack
format), but they are never fed to a bare ``pickle.loads``.  Both decode
through :func:`restricted_loads`, whose ``find_class`` admits only
``repro.*`` **classes** plus a fixed allow-list of data-carrier globals
(container builtins, numpy array reconstruction).  Arbitrary importables —
``os.system``, ``subprocess.Popen``, ``builtins.eval``, even ``repro``
module-level *functions* (call gadgets: ``REDUCE`` invokes whatever
``find_class`` returns) — raise ``pickle.UnpicklingError`` before any code
runs.  Together with the worker's task-function allow-list this is what
lets a broker accept envelopes from untrusted submitters without handing
them code execution; what remains reachable is constructing ``repro`` data
objects with attacker-chosen fields, which the task functions treat as
(possibly garbage) work.
"""

from __future__ import annotations

import base64
import binascii
import io
import json
import pickle
from typing import Any, Callable, Iterable

#: Version tag stamped on v1 wire payloads (task envelopes, leases,
#: result summaries).  Bump when a payload changes shape; readers accept
#: anything ``<=`` their own version.
WIRE_SCHEMA = 1


def canonical_json(payload: Any) -> bytes:
    """Sorted-key, whitespace-free JSON + newline — the artifact format."""
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode(
        "utf-8"
    )


# -- restricted unpickling ----------------------------------------------------

#: Non-``repro`` globals a wire pickle may reference: pure data carriers
#: whose construction runs no caller-supplied code.  Everything here is a
#: container/value type or a numpy array-reconstruction hook (the names
#: numpy itself emits for ``ndarray.__reduce__``, old and new layouts).
_SAFE_GLOBALS = frozenset(
    [("builtins", name) for name in (
        "bool", "bytearray", "bytes", "complex", "dict", "float",
        "frozenset", "int", "list", "range", "set", "slice", "str", "tuple",
    )]
    + [
        ("collections", "OrderedDict"),
        ("collections", "deque"),
        ("copyreg", "_reconstructor"),
        ("numpy", "dtype"),
        ("numpy", "ndarray"),
        ("numpy.core.multiarray", "_reconstruct"),
        ("numpy.core.multiarray", "scalar"),
        ("numpy.core.numeric", "_frombuffer"),
        ("numpy._core.multiarray", "_reconstruct"),
        ("numpy._core.multiarray", "scalar"),
        ("numpy._core.numeric", "_frombuffer"),
    ]
)


class _RestrictedUnpickler(pickle.Unpickler):
    """``pickle.Unpickler`` that refuses code-execution gadgets.

    ``find_class`` is the only door a pickle has into the interpreter's
    namespace; narrowing it to :data:`_SAFE_GLOBALS` plus ``repro.*``
    *classes* (not functions — ``REDUCE`` calls whatever comes back) turns
    a hostile payload into an :class:`pickle.UnpicklingError` instead of a
    remote shell.
    """

    def find_class(self, module: str, name: str) -> Any:
        if (module, name) in _SAFE_GLOBALS:
            return super().find_class(module, name)
        if module == "repro" or module.startswith("repro."):
            target = super().find_class(module, name)
            if isinstance(target, type):
                return target
            raise pickle.UnpicklingError(
                f"wire payloads may reference repro classes, not "
                f"{module}.{name} (a {type(target).__name__})"
            )
        raise pickle.UnpicklingError(
            f"wire payloads may not reference {module}.{name}"
        )


def restricted_loads(payload: bytes) -> Any:
    """``pickle.loads`` through the wire allow-list (see module docstring).

    Raises :class:`pickle.UnpicklingError` (or the usual truncation/codec
    errors) for anything referencing a global outside the allow-list.
    """
    return _RestrictedUnpickler(io.BytesIO(payload)).load()


# -- task envelopes -----------------------------------------------------------


def function_name(fn: Callable) -> str:
    """The importable ``module.qualname`` identity of a task function."""
    return f"{fn.__module__}.{fn.__qualname__}"


def encode_task(fn: Callable, task: Any, trace: dict | None = None) -> dict:
    """A JSON-able envelope shipping one ``(fn, task)`` dispatch.

    The function travels by importable name (workers re-resolve it — code
    never crosses the wire), the task object as a base64 pickle.  When span
    tracing is active (or ``trace`` is passed explicitly), the submitter's
    span context rides along under ``"trace"`` so a remote worker can
    parent its execution span into the same trace tree.  The key is
    advisory: :func:`decode_task` ignores it, task *identity* digests
    :func:`synthesis_task_payload` (never the envelope), and pre-fabric
    workers see an unknown key they never read — so telemetry cannot
    change what executes or which acks replay.
    """
    payload = pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)
    envelope = {
        "schema": WIRE_SCHEMA,
        "fn": function_name(fn),
        "task_pkl": base64.b64encode(payload).decode("ascii"),
    }
    if trace is None:
        # Imported lazily and narrowly: wire stays a leaf module, and the
        # context is only captured when a trace sink is actually configured.
        from repro.obs.trace import TRACER, current_context

        if TRACER.enabled:
            trace = current_context()
    if isinstance(trace, dict):
        trace_id, span_id = trace.get("trace"), trace.get("span")
        if isinstance(trace_id, str) and isinstance(span_id, str):
            envelope["trace"] = {"trace": trace_id, "span": span_id}
    return envelope


def trace_context(envelope: Any) -> dict | None:
    """The span context riding a task envelope, or None.

    Tolerant by design — envelopes from pre-telemetry submitters, or with
    a malformed ``"trace"`` value, simply yield no parent.
    """
    if not isinstance(envelope, dict):
        return None
    context = envelope.get("trace")
    if not isinstance(context, dict):
        return None
    trace_id, span_id = context.get("trace"), context.get("span")
    if isinstance(trace_id, str) and isinstance(span_id, str):
        return {"trace": trace_id, "span": span_id}
    return None


def decode_task(envelope: dict) -> tuple[str, Any]:
    """Inverse of :func:`encode_task`: ``(fn_name, task)``.

    Raises ``ValueError`` for envelopes from a *newer* schema or with a
    malformed body — a worker must reject what it cannot faithfully run.
    The body is unpickled through :func:`restricted_loads`, so a hostile
    envelope surfaces as a rejection, never as code execution.
    """
    if not isinstance(envelope, dict):
        raise ValueError("task envelope must be a JSON object")
    schema = envelope.get("schema", 0)
    if not isinstance(schema, int) or schema > WIRE_SCHEMA:
        raise ValueError(
            f"task envelope schema {schema!r} is newer than this worker "
            f"(speaks <= {WIRE_SCHEMA})"
        )
    fn_name = envelope.get("fn")
    if not isinstance(fn_name, str) or "." not in fn_name:
        raise ValueError(f"task envelope has no importable fn ({fn_name!r})")
    try:
        task = restricted_loads(base64.b64decode(envelope["task_pkl"]))
    except (KeyError, TypeError, ValueError, binascii.Error,
            pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError) as exc:
        raise ValueError(f"task envelope body is unreadable ({exc})") from exc
    return fn_name, task


# -- result payloads ----------------------------------------------------------


def encode_result(result: Any) -> bytes:
    """Raw result bytes — exactly the PR 4 ``.ack.pkl`` format."""
    return pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)


def decode_result(payload: bytes) -> Any:
    """Inverse of :func:`encode_result`, via :func:`restricted_loads`.

    Ack bytes come back from brokers other processes write into, so the
    submitter applies the same allow-list the worker applies to tasks;
    raises like ``pickle.loads`` on truncation or a disallowed global.
    """
    return restricted_loads(payload)


def encode_result_b64(payload: bytes) -> str:
    """Wrap raw result bytes for a JSON body (the HTTP broker's ack)."""
    return base64.b64encode(payload).decode("ascii")


def decode_result_b64(text: str) -> bytes:
    """Inverse of :func:`encode_result_b64`; raises ``ValueError``."""
    try:
        return base64.b64decode(text, validate=True)
    except (TypeError, binascii.Error) as exc:
        raise ValueError(f"result payload is not valid base64 ({exc})") from exc


# -- leases -------------------------------------------------------------------


def lease_body(
    pid: int,
    worker: str | None = None,
    host: str | None = None,
    deadline: float | None = None,
) -> str:
    """The lease file / lease record JSON text (schema-tagged)."""
    payload: dict[str, Any] = {"schema": WIRE_SCHEMA, "pid": int(pid)}
    if worker is not None:
        payload["worker"] = worker
    if host is not None:
        payload["host"] = host
    if deadline is not None:
        payload["deadline"] = float(deadline)
    return json.dumps(payload, sort_keys=True)


def parse_lease(text: str) -> dict:
    """Tolerant lease parse: always a dict, never an exception.

    Returns ``{"pid": int, "worker": str | None, "host": str | None,
    "deadline": float | None}``.  A PR 4 lease (``{"pid": N}`` or a bare
    integer) parses with the new fields ``None``; truncated JSON, binary
    garbage or an empty file (a crash mid-write) parse to ``pid=0`` — a
    dead claim the reclaim sweep may break.
    """
    dead = {"pid": 0, "worker": None, "host": None, "deadline": None}
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError):
        try:
            return {**dead, "pid": int(text.strip() or "0")}
        except ValueError:
            return dead
    if not isinstance(payload, dict):
        try:
            return {**dead, "pid": int(payload)}
        except (TypeError, ValueError):
            return dead
    parsed = dict(dead)
    try:
        parsed["pid"] = int(payload.get("pid", 0))
    except (TypeError, ValueError):
        parsed["pid"] = 0
    worker = payload.get("worker")
    parsed["worker"] = worker if isinstance(worker, str) else None
    host = payload.get("host")
    parsed["host"] = host if isinstance(host, str) else None
    try:
        deadline = payload.get("deadline")
        parsed["deadline"] = None if deadline is None else float(deadline)
    except (TypeError, ValueError):
        parsed["deadline"] = None
    return parsed


# -- task identity ------------------------------------------------------------


def synthesis_task_payload(job: Any) -> dict:
    """Stable identity of one :class:`~repro.engine.scheduler.SynthesisJob`.

    The dict whose digest keys the job's queue/broker acks.  **Byte-stability
    contract**: this must reproduce the PR 4 ``queue_payload`` exactly —
    changing a key or a default orphans every ack already on disk.
    ``"kind"`` doubles as the schema tag.

    Two fields of the raw dataclass cannot enter a content address: the
    donor's ``wall_seconds`` is nondeterministic (so the donor collapses to
    its :func:`~repro.engine.persist.sizing_digest`), and the template
    directory is excluded because results are bit-identical with or
    without it.
    """
    from repro.engine.persist import sizing_digest

    return {
        "kind": "synthesis_job",
        "spec": job.spec,
        "tech": job.tech,
        "budget": job.budget,
        "seed": job.seed,
        "verify_transient": bool(job.verify_transient),
        "donor": None if job.donor is None else sizing_digest(job.donor),
        "retarget_budget": job.retarget_budget,
        "retarget_seed": job.retarget_seed,
    }


# -- result summaries (the service's ``result.json``) --------------------------


def topology_payload(result: Any) -> bytes:
    """Canonical JSON bytes for one :class:`TopologyResult`.

    Shared by the service (optimize-job ``result.json``) and by anyone
    serializing a direct :func:`~repro.flow.topology.optimize_topology`
    call — byte-identity between the two paths follows from sharing this
    serializer plus the flow's own determinism guarantees.
    """
    spec = result.spec
    return canonical_json(
        {
            "schema": WIRE_SCHEMA,
            "kind": "optimize",
            "spec": {
                "resolution_bits": spec.resolution_bits,
                "sample_rate_hz": spec.sample_rate_hz,
                "full_scale": spec.full_scale,
                "tech": spec.tech.name,
            },
            "winner": result.best.label,
            "rankings": [
                [e.label, e.total_power] for e in result.evaluations
            ],
            "all_feasible": all(e.all_feasible for e in result.evaluations),
            "unique_blocks": result.unique_blocks,
        }
    )


def campaign_payload(records: Iterable[Any]) -> bytes:
    """Canonical JSON summary for a finished campaign job."""
    return canonical_json(
        {
            "schema": WIRE_SCHEMA,
            "kind": "campaign",
            "scenarios": [
                {
                    "label": r.label,
                    "winner": r.winner,
                    "winner_power_w": r.winner_power_w,
                    "fom_j_per_step": r.fom_j_per_step,
                }
                for r in records
            ],
        }
    )


__all__ = [
    "WIRE_SCHEMA",
    "campaign_payload",
    "canonical_json",
    "decode_result",
    "decode_result_b64",
    "decode_task",
    "encode_result",
    "encode_result_b64",
    "encode_task",
    "function_name",
    "lease_body",
    "parse_lease",
    "restricted_loads",
    "synthesis_task_payload",
    "topology_payload",
    "trace_context",
]
